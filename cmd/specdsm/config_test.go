package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"specdsm"
)

func TestParseRunSingleApp(t *testing.T) {
	s, err := parseRun([]string{"-app", "em3d", "-mode", "swi", "-scale", "0.5", "-seed", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Cfg.Apps, []string{"em3d"}) {
		t.Fatalf("apps = %v", s.Cfg.Apps)
	}
	if s.Opts.Mode != specdsm.ModeSWI {
		t.Fatalf("mode = %q", s.Opts.Mode)
	}
	want := specdsm.WorkloadParams{Nodes: 0, Iterations: 0, Scale: 0.5, Seed: 3}
	if s.wp() != want {
		t.Fatalf("wp = %+v, want %+v", s.wp(), want)
	}
	if s.Opts.Active != nil || len(s.Opts.Observers) != 0 {
		t.Fatalf("unexpected predictors: %+v", s.Opts)
	}
}

func TestParseRunMultiAppParallel(t *testing.T) {
	s, err := parseRun([]string{"-app", "em3d, moldyn,ocean", "-parallel", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Cfg.Apps, []string{"em3d", "moldyn", "ocean"}) {
		t.Fatalf("apps = %v", s.Cfg.Apps)
	}
	if s.Cfg.Parallel != 3 {
		t.Fatalf("parallel = %d", s.Cfg.Parallel)
	}
	ws, err := s.workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0].Name != "em3d" || ws[2].Name != "ocean" {
		t.Fatalf("workloads = %+v", ws)
	}
}

func TestParseRunPredictorOverride(t *testing.T) {
	s, err := parseRun([]string{"-app", "moldyn", "-mode", "swi", "-predictor", "MSP", "-depth", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := &specdsm.PredictorConfig{Kind: specdsm.MSP, Depth: 2}
	if !reflect.DeepEqual(s.Opts.Active, want) {
		t.Fatalf("active = %+v, want %+v", s.Opts.Active, want)
	}
}

func TestParseRunObserve(t *testing.T) {
	s, err := parseRun([]string{"-app", "em3d", "-observe"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Opts.Observers) != 3 {
		t.Fatalf("observers = %+v", s.Opts.Observers)
	}
}

func TestParseRunPattern(t *testing.T) {
	s, err := parseRun([]string{"-pattern", "migratory", "-nodes", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Name != "migratory" || ws[0].Nodes != 4 {
		t.Fatalf("workloads = %+v", ws)
	}
}

func TestParseRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"app and pattern", []string{"-app", "em3d", "-pattern", "migratory"}, "mutually exclusive"},
		{"neither", nil, "need -app or -pattern"},
		{"trace multi app", []string{"-app", "em3d,moldyn", "-trace-out", "t.log"}, "single workload"},
		{"empty app entry", []string{"-app", "em3d,"}, "empty entry"},
		{"stray positional", []string{"-app", "em3d", "swi"}, "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseRun(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

func TestParseRunList(t *testing.T) {
	s, err := parseRun([]string{"-list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !s.List {
		t.Fatal("List not set")
	}
}

// TestRunMultiAppOutputMatchesSequential drives the full run path: a
// three-app sweep at -parallel 4 must print byte-identical output to
// -parallel 1.
func TestRunMultiAppOutputMatchesSequential(t *testing.T) {
	args := []string{"-app", "em3d,moldyn,tomcatv", "-mode", "swi", "-scale", "0.25", "-iters", "2", "-nodes", "8"}
	render := func(parallel int) string {
		s, err := parseRun(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		s.Cfg.Parallel = parallel
		var b strings.Builder
		if err := run(s, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("parallel output diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if n := strings.Count(seq, "workload            "); n != 3 {
		t.Fatalf("%d report blocks, want 3", n)
	}
	for i, app := range []string{"em3d", "moldyn", "tomcatv"} {
		if !strings.Contains(seq, app) {
			t.Fatalf("report %d missing app %s:\n%s", i, app, seq)
		}
	}
}

func TestParseRunSweepFlags(t *testing.T) {
	s, err := parseRun([]string{
		"-app", "em3d,moldyn",
		"-remote", "127.0.0.1:7701, 127.0.0.1:7702",
		"-keep-going", "-checkpoint", "run.ck", "-resume", "-checkpoint-every", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Cfg.Remote, []string{"127.0.0.1:7701", "127.0.0.1:7702"}) {
		t.Fatalf("Remote = %v", s.Cfg.Remote)
	}
	if !s.Cfg.KeepGoing || s.Cfg.CheckpointPath != "run.ck" || s.Cfg.CheckpointEvery != 2 {
		t.Fatalf("sweep flags not threaded into cfg: %+v", s.Cfg)
	}
	if !s.Cfg.Resume || s.Cfg.OnSalvage == nil {
		t.Fatalf("-resume must set Resume and the drop report, got %+v", s.Cfg)
	}
}

// TestParseRunSweepFlagErrors pins exit-2 validation for the sweep
// machinery flags: bad or empty -remote entries, resume without a
// checkpoint, and sweep-only flags on non-sweep runs are all caught at
// parse time rather than surfacing as runtime failures.
func TestParseRunSweepFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"remote bad host", []string{"-app", "em3d", "-remote", "nonsense"}, "want host:port"},
		{"remote empty entry", []string{"-app", "em3d", "-remote", "127.0.0.1:7701,,127.0.0.1:7702"}, "empty entry"},
		{"remote with pattern", []string{"-pattern", "migratory", "-remote", "127.0.0.1:7701"}, "-remote needs an -app sweep"},
		{"checkpoint with pattern", []string{"-pattern", "migratory", "-checkpoint", "ck"}, "-checkpoint needs an -app sweep"},
		{"keep-going with trace", []string{"-app", "em3d", "-trace-out", "t.log", "-keep-going"}, "-keep-going needs an -app sweep"},
		{"faults with trace", []string{"-app", "em3d", "-trace-out", "t.log", "-faults", "seed=1,panic=1"}, "-faults needs an -app sweep"},
		{"retries with trace", []string{"-app", "em3d", "-trace-out", "t.log", "-retries", "2"}, "-retries needs an -app sweep"},
		{"parallel with trace", []string{"-app", "em3d", "-trace-out", "t.log", "-parallel", "2"}, "-parallel needs an -app sweep"},
		{"faults with pattern", []string{"-pattern", "migratory", "-faults", "seed=1,transient=0.5"}, "-faults needs an -app sweep"},
		{"retries with pattern", []string{"-pattern", "migratory", "-retries", "2"}, "-retries needs an -app sweep"},
		{"parallel with pattern", []string{"-pattern", "migratory", "-parallel", "2"}, "-parallel needs an -app sweep"},
		{"resume without checkpoint", []string{"-app", "em3d", "-resume"}, "-resume requires -checkpoint"},
		{"negative checkpoint cadence", []string{"-app", "em3d", "-checkpoint", "ck", "-checkpoint-every", "-2"}, "-checkpoint-every"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseRun(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

func TestParseRunFailureFlags(t *testing.T) {
	s, err := parseRun([]string{"-app", "em3d", "-retries", "2", "-faults", "seed=5,transient=0.1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Cfg.Retries)
	}
	if s.Cfg.FaultSpec != "seed=5,transient=0.1" {
		t.Fatal("fault spec not threaded into cfg")
	}
	if _, err := parseRun([]string{"-app", "em3d", "-retries", "-1"}, io.Discard); err == nil {
		t.Fatal("negative -retries accepted")
	}
	if _, err := parseRun([]string{"-app", "em3d", "-faults", "transient=wat"}, io.Discard); err == nil {
		t.Fatal("malformed -faults accepted")
	}
}
