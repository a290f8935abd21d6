package specdsm_test

// Determinism goldens: the simulator is bit-reproducible, so exact cycle
// counts for fixed (app, scale, seed, mode) are pinned here. A failure
// means simulator behaviour changed — which may be intentional, but must
// be noticed (update the constants deliberately, alongside EXPERIMENTS.md
// if shapes moved).

import (
	"reflect"
	"testing"

	"specdsm"
)

func goldenRun(t *testing.T, app string, mode specdsm.Mode) int64 {
	t.Helper()
	w, err := specdsm.AppWorkload(app, specdsm.WorkloadParams{
		Nodes: 8, Iterations: 3, Scale: 0.25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := specdsm.Run(w, specdsm.MachineOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return r.Cycles
}

func TestDeterminismAcrossRuns(t *testing.T) {
	for _, app := range specdsm.AppNames() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			a := goldenRun(t, app, specdsm.ModeSWI)
			b := goldenRun(t, app, specdsm.ModeSWI)
			if a != b {
				t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
			}
		})
	}
}

// TestStudiesParallelInvariant pins the sweep engine's core contract:
// the study drivers produce deep-equal results at Parallel: 8 and
// Parallel: 1 (the exact sequential order of the pre-pool loops), for
// multiple seeds. This is what makes -parallel N byte-identical to
// -parallel 1 at the CLI.
func TestStudiesParallelInvariant(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		seed := seed
		cfg := specdsm.StudyConfig{
			Apps:       []string{"em3d", "moldyn", "tomcatv"},
			Nodes:      8,
			Iterations: 3,
			Scale:      0.25,
			Seed:       seed,
		}
		seq, par := cfg, cfg
		seq.Parallel, par.Parallel = 1, 8

		p1, err := collect(seq, specdsm.PredictorStudyStream)
		if err != nil {
			t.Fatal(err)
		}
		p8, err := collect(par, specdsm.PredictorStudyStream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p8) {
			t.Fatalf("seed %d: PredictorStudyStream diverged between Parallel 1 and 8:\n%+v\nvs\n%+v", seed, p1, p8)
		}

		s1, err := collect(seq, specdsm.SpeculationStudyStream)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := collect(par, specdsm.SpeculationStudyStream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1, s8) {
			t.Fatalf("seed %d: SpeculationStudyStream diverged between Parallel 1 and 8:\n%+v\nvs\n%+v", seed, s1, s8)
		}
	}
}

// TestAggregatesParallelInvariant extends the invariant to the
// multi-seed aggregate and the rtl sweep.
func TestAggregatesParallelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate sweeps are slow for -short")
	}
	cfg := specdsm.StudyConfig{
		Apps: []string{"em3d", "tomcatv"}, Nodes: 8, Iterations: 3, Scale: 0.25,
		DisableChecks: true,
	}
	seq, par := cfg, cfg
	seq.Parallel, par.Parallel = 1, 8
	a1, err := specdsm.SpeculationStudySeeds(seq, []int64{11, 23})
	if err != nil {
		t.Fatal(err)
	}
	a8, err := specdsm.SpeculationStudySeeds(par, []int64{11, 23})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a8) {
		t.Fatalf("SpeculationStudySeeds diverged:\n%+v\nvs\n%+v", a1, a8)
	}

	wp := specdsm.WorkloadParams{Nodes: 8, Iterations: 3, Scale: 0.25, Seed: 11}
	r1, err := rtlPoints(specdsm.StudyConfig{Parallel: 1}, "em3d", wp, []int{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := rtlPoints(specdsm.StudyConfig{Parallel: 8}, "em3d", wp, []int{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("RTLSweepStream diverged:\n%+v\nvs\n%+v", r1, r8)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	w1, _ := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 8, Iterations: 3, Scale: 0.25, Seed: 1})
	w2, _ := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 8, Iterations: 3, Scale: 0.25, Seed: 2})
	r1, err := specdsm.Run(w1, specdsm.MachineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := specdsm.Run(w2, specdsm.MachineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r2.Cycles {
		t.Fatalf("different seeds produced identical makespans (%d); generator ignoring seed?", r1.Cycles)
	}
}
