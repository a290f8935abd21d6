package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c := o.Cfg
	if c.Nodes != 16 || c.Scale != 1.0 || c.Seed != 1 || c.Iterations != 0 {
		t.Fatalf("default cfg = %+v", c)
	}
	if c.Parallel != 0 {
		t.Fatalf("default Parallel = %d, want 0 (auto = one per CPU)", c.Parallel)
	}
	if len(c.Apps) != 0 {
		t.Fatalf("default apps = %v, want all (empty)", c.Apps)
	}
	if o.Only != "" || o.Seeds != nil {
		t.Fatalf("options = %+v", o)
	}
	if !o.want("fig7") || !o.want("table5") {
		t.Fatal("default options must want every experiment")
	}
}

func TestParseOptionsProgress(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Progress {
		t.Fatal("progress must default off")
	}
	o, err = parseOptions([]string{"-progress"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Progress {
		t.Fatal("-progress not parsed")
	}
	if o.Cfg.OnJobDone != nil {
		t.Fatal("parseOptions must not install the hook itself (run wires it to stderr)")
	}
}

func TestParseOptionsFullFlagSet(t *testing.T) {
	o, err := parseOptions([]string{
		"-only", "fig9", "-scale", "0.5", "-seed", "7", "-iters", "3",
		"-apps", "em3d, moldyn", "-nodes", "8", "-parallel", "4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := o.Cfg
	want.Nodes, want.Scale, want.Seed, want.Iterations, want.Parallel = 8, 0.5, 7, 3, 4
	want.Apps = []string{"em3d", "moldyn"}
	if !reflect.DeepEqual(o.Cfg, want) {
		t.Fatalf("cfg = %+v, want %+v", o.Cfg, want)
	}
	if o.Only != "fig9" {
		t.Fatalf("only = %q", o.Only)
	}
	if o.want("fig7") || !o.want("fig9") {
		t.Fatal("want() ignores -only")
	}
}

func TestParseOptionsSeeds(t *testing.T) {
	o, err := parseOptions([]string{"-seeds", "1, 2,30"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Seeds, []int64{1, 2, 30}) {
		t.Fatalf("seeds = %v", o.Seeds)
	}
}

func TestParseOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string // expected error substring
	}{
		{"bad seed", []string{"-seeds", "1,x"}, "bad seed"},
		{"empty seed entry", []string{"-seeds", "1,,2"}, "empty entry"},
		{"empty app entry", []string{"-apps", "em3d,"}, "empty entry"},
		{"unknown app", []string{"-apps", "nope"}, "unknown application"},
		{"unknown experiment", []string{"-only", "fig99"}, "unknown experiment"},
		{"stray positional", []string{"fig7"}, "unexpected argument"},
		{"unknown flag", []string{"-bogus"}, ""},
		{"resume without checkpoint", []string{"-resume"}, "-resume requires -checkpoint"},
		{"negative checkpoint cadence", []string{"-checkpoint", "ck", "-checkpoint-every", "-2"}, "-checkpoint-every"},
		{"negative crash-after", []string{"-crash-after", "-1"}, "-crash-after"},
		{"one node", []string{"-only", "fig7", "-apps", "em3d", "-nodes", "1"}, "invalid node count 1"},
		{"negative nodes", []string{"-nodes", "-4"}, "invalid node count -4"},
		{"too many nodes", []string{"-nodes", "5000"}, "invalid node count 5000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

func TestParseOptionsRemote(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Cfg.Remote) != 0 {
		t.Fatalf("remote dispatch must default off, got %v", o.Cfg.Remote)
	}
	o, err = parseOptions([]string{"-remote", "127.0.0.1:7701, 127.0.0.1:7702"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Cfg.Remote, []string{"127.0.0.1:7701", "127.0.0.1:7702"}) {
		t.Fatalf("Remote = %v", o.Cfg.Remote)
	}

	// Bad shard lists are wrong invocations (exit 2 via parse error),
	// not runtime failures discovered after hours of simulation.
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"bad host", []string{"-remote", "nonsense"}, "want host:port"},
		{"empty entry", []string{"-remote", "127.0.0.1:7701,,127.0.0.1:7702"}, "empty entry"},
		{"blank list", []string{"-remote", " , "}, "empty entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

func TestParseOptionsProfileFlags(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.CPUProfile != "" || o.MemProfile != "" {
		t.Fatalf("profiles must default off, got %+v", o)
	}
	o, err = parseOptions([]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.CPUProfile != "cpu.out" || o.MemProfile != "mem.out" {
		t.Fatalf("profile flags not parsed: %+v", o)
	}
}

// TestProfilesWriteFiles drives the real collectors end to end: both
// profile files must exist and be non-empty after a stopped run.
func TestProfilesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	o, err := parseOptions([]string{"-cpuprofile", cpu, "-memprofile", mem}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := startProfiles(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

func TestParseOptionsCheckpointFlags(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.CheckpointPath != "" || o.Cfg.Resume || o.Cfg.CheckpointEvery != 0 || o.CrashAfter != 0 {
		t.Fatalf("checkpointing must default off, got %+v", o)
	}
	o, err = parseOptions([]string{
		"-checkpoint", "run.ck", "-resume", "-checkpoint-every", "4", "-crash-after", "9",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.CheckpointPath != "run.ck" || !o.Cfg.Resume || o.Cfg.CheckpointEvery != 4 {
		t.Fatalf("checkpoint flags not threaded into cfg: %+v", o.Cfg)
	}
	if o.CrashAfter != 9 {
		t.Fatalf("CrashAfter = %d, want 9", o.CrashAfter)
	}
}

func TestParseOptionsParallelOne(t *testing.T) {
	o, err := parseOptions([]string{"-parallel", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.Parallel != 1 {
		t.Fatalf("Parallel = %d, want 1 (sequential reproduction mode)", o.Cfg.Parallel)
	}
}

func TestParseOptionsFailureFlags(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.Retries != 0 || o.Cfg.KeepGoing || o.Cfg.Salvage || o.Cfg.FaultSpec != "" {
		t.Fatalf("failure knobs must default off, got %+v", o.Cfg)
	}
	o, err = parseOptions([]string{
		"-checkpoint", "run.ck", "-resume-salvage",
		"-retries", "3", "-keep-going", "-faults", "seed=7,transient=0.2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.Retries != 3 || !o.Cfg.KeepGoing || o.Cfg.FaultSpec != "seed=7,transient=0.2" {
		t.Fatalf("failure flags not threaded into cfg: %+v", o.Cfg)
	}
	if !o.Cfg.Salvage || !o.Cfg.Resume {
		t.Fatalf("-resume-salvage must imply Resume, got %+v", o.Cfg)
	}

	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"salvage without checkpoint", []string{"-resume-salvage"}, "-resume-salvage requires -checkpoint"},
		{"negative retries", []string{"-retries", "-1"}, "retry"},
		{"bad fault spec", []string{"-faults", "transient=wat"}, "fault"},
		{"unknown fault knob", []string{"-faults", "frobnicate=1"}, "fault"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}
