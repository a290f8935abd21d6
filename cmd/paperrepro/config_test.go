package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"specdsm"
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
	if !planned(o, "fig7") || !planned(o, "table5") {
		t.Fatal("default options must want every experiment")
	}
}

// planned reports whether o's run prints the named experiment.
func planned(o options, name string) bool {
	for _, e := range o.plan() {
		if e.Name == name {
			return true
		}
	}
	return false
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
	if planned(o, "fig7") || !planned(o, "fig9") {
		t.Fatal("plan ignores -only")
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
		{"seeds with -only fig7", []string{"-only", "fig7", "-seeds", "1,2"}, "-seeds aggregates Figure 9"},
		{"seeds with -only table1", []string{"-only", "table1", "-seeds", "1,2"}, "-seeds aggregates Figure 9"},
		{"seeds with -only rtl", []string{"-only", "rtl", "-seeds", "1,2"}, "-seeds aggregates Figure 9"},
		{"seeds with -only scaling", []string{"-only", "scaling", "-seeds", "1,2"}, "-seeds aggregates Figure 9"},
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
	if o.Cfg.Retries != 0 || o.Cfg.KeepGoing || o.Cfg.Resume || o.Cfg.FaultSpec != "" {
		t.Fatalf("failure knobs must default off, got %+v", o.Cfg)
	}
	o, err = parseOptions([]string{
		"-checkpoint", "run.ck", "-resume",
		"-retries", "3", "-keep-going", "-faults", "seed=7,transient=0.2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cfg.Retries != 3 || !o.Cfg.KeepGoing || o.Cfg.FaultSpec != "seed=7,transient=0.2" {
		t.Fatalf("failure flags not threaded into cfg: %+v", o.Cfg)
	}
	if !o.Cfg.Resume || o.Cfg.OnSalvage == nil {
		t.Fatalf("-resume must set Resume and the drop report, got %+v", o.Cfg)
	}

	cases := []struct {
		name string
		args []string
		frag string
	}{
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

// TestPlan pins which experiments a run prints, and the invariant run
// relies on to run each study at most once: one study's experiments sit
// next to each other in every plan.
func TestPlan(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "table1 table2 characterize fig6 fig7 fig8 table3 table4 fig9 table5"},
		{[]string{"-only", "rtl"}, "rtl"},
		{[]string{"-seeds", "1,2"}, "table1 table2 characterize fig6 fig9"},
		{[]string{"-only", "fig9", "-seeds", "1,2"}, "fig9"},
	}
	for _, c := range cases {
		o, err := parseOptions(c.args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		plan := o.plan()
		var names []string
		ran := map[string]bool{}
		for i, e := range plan {
			names = append(names, e.Name)
			if e.Study == "" || i > 0 && plan[i-1].Study == e.Study {
				continue
			}
			if ran[e.Study] {
				t.Errorf("%v: study of %s would run twice", c.args, e.Name)
			}
			ran[e.Study] = true
		}
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("%v: plan %q, want %q", c.args, got, c.want)
		}
		if len(o.Seeds) > 0 && plan[len(plan)-1].Study != "seeds" {
			t.Errorf("%v: Figure 9 is not the seed aggregate", c.args)
		}
	}
}

// TestRunInProcess drives run against a buffer.
func TestRunInProcess(t *testing.T) {
	o, err := parseOptions([]string{"-only", "table1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range specdsm.Experiments() {
		if e.Name == "table1" {
			if err := e.Render(&want, specdsm.Rows{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !strings.HasPrefix(want.String(), "Table 1:") || b.String() != want.String()+"\n" {
		t.Fatalf("output %q, want %q", b.String(), want.String()+"\n")
	}
}
