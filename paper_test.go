package specdsm

// The paper's study simulates each distinct machine once: every
// application under Base-DSM, FR-DSM and SWI-DSM, with the passive
// predictors riding the Base run. These tests pin that shape, the
// invariant it rests on (observers do not perturb the run they watch),
// and that the predictor artifacts no longer depend on
// StudyConfig.Depths.

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func paperCfg() StudyConfig {
	return StudyConfig{Nodes: 8, Iterations: 2, Scale: 0.1, Parallel: 2}
}

// TestPaperStudyRunsEachMachineOnce runs the whole plan of a default
// paperrepro run, characterization included, one Run per study as the
// command shares them, and counts the jobs OnJobDone reports: one per
// simulation, that is per application and mode, with the nine observers
// on the Base runs and none on the FR and SWI runs. The characterization
// simulates nothing and reports no job.
func TestPaperStudyRunsEachMachineOnce(t *testing.T) {
	cfg := paperCfg()
	var jobs atomic.Int64
	cfg.OnJobDone = func(int, time.Duration) { jobs.Add(1) }
	var studies []string
	var rows Rows
	ran := map[*study]bool{}
	for _, e := range Experiments() {
		if e.OptIn || !e.Prints(false) || ran[e.study] {
			continue
		}
		ran[e.study] = true
		r, err := e.Run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.Study != "" {
			studies, rows = append(studies, e.Study), r
		}
	}
	if want := []string{speculationStudy}; !reflect.DeepEqual(studies, want) {
		t.Fatalf("default run simulates studies %q, want %q", studies, want)
	}
	apps := len(AppNames())
	if got := jobs.Load(); got != int64(3*apps) {
		t.Errorf("default run simulated %d jobs, want %d (3 modes × %d apps)", got, 3*apps, apps)
	}
	study, _ := rows.rows.([]appSpeculation)
	if len(study) != apps {
		t.Fatalf("%d rows, want %d", len(study), apps)
	}
	for _, as := range study {
		if n := len(as.Base.Predictors); n != 9 {
			t.Errorf("%s: Base run carries %d predictor results, want 9", as.App, n)
		}
		// A speculative run reports its active predictor, last; an
		// observer would add to that.
		if n, m := len(as.FR.Predictors), len(as.SWI.Predictors); n != 1 || m != 1 {
			t.Errorf("%s: FR and SWI runs carry %d and %d predictor results, want only the active one", as.App, n, m)
		}
	}
}

// TestObserversLeaveBaseRunUnchanged is the invariant the fold rests on:
// a Base run with the paper's nine passive observers equals the plain
// Base run in every field but Predictors, so Figure 9 and Table 5 read
// the same numbers from the observed run.
func TestObserversLeaveBaseRunUnchanged(t *testing.T) {
	wp := WorkloadParams{Nodes: 16, Scale: 0.25, Seed: 3}
	for _, app := range AppNames() {
		t.Run(app, func(t *testing.T) {
			w, err := AppWorkload(app, wp)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(w, MachineOptions{Mode: ModeBase})
			if err != nil {
				t.Fatal(err)
			}
			observed, err := Run(w, MachineOptions{Mode: ModeBase, Observers: observers([]int{1, 2, 4})})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(observed.Predictors); n != 9 {
				t.Fatalf("observed run carries %d predictor results, want 9", n)
			}
			observed.Predictors = plain.Predictors
			if !reflect.DeepEqual(plain, observed) {
				t.Errorf("observers changed the run:\nplain    %+v\nobserved %+v", *plain, *observed)
			}
		})
	}
}

// TestPaperArtifactsIgnoreDepths renders Figure 8 and Table 4, which
// report depths 2 and 4, under Depths {1}: they must match the default
// render rather than print unmeasured depths as zeros.
func TestPaperArtifactsIgnoreDepths(t *testing.T) {
	render := func(cfg StudyConfig) string {
		var b strings.Builder
		for _, e := range Experiments() {
			if e.Name != "fig8" && e.Name != "table4" {
				continue
			}
			rows, err := e.Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Render(&b, rows); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	cfg := paperCfg()
	cfg.Apps = []string{"em3d", "moldyn"}
	want := render(cfg)
	cfg.Depths = []int{1}
	if got := render(cfg); got != want {
		t.Errorf("Depths {1} render differs from the default:\n--- default ---\n%s\n--- Depths {1} ---\n%s", want, got)
	}
}
