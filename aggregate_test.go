package specdsm_test

import (
	"strings"
	"testing"

	"specdsm"
)

func TestSpeculationStudySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study is slow for -short")
	}
	cfg := specdsm.StudyConfig{
		Apps:          []string{"em3d", "tomcatv"},
		Nodes:         8,
		Scale:         0.25,
		Iterations:    4,
		DisableChecks: true,
	}
	agg, err := specdsm.SpeculationStudySeeds(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 2 {
		t.Fatalf("%d rows", len(agg))
	}
	for _, r := range agg {
		if r.Seeds != 3 {
			t.Fatalf("%s: seeds = %d", r.App, r.Seeds)
		}
		if r.FRMean <= 0 || r.SWIMean <= 0 {
			t.Fatalf("%s: degenerate means %+v", r.App, r)
		}
		// Both speculative modes beat base on these two apps, robustly
		// across seeds.
		if r.SWIMean >= 100 {
			t.Errorf("%s: SWI mean %.1f >= 100", r.App, r.SWIMean)
		}
		if r.FRStd < 0 || r.SWIStd < 0 {
			t.Fatalf("%s: negative std", r.App)
		}
	}
	out := specdsm.RenderFigure9Aggregate(agg)
	if !strings.Contains(out, "em3d") || !strings.Contains(out, "±") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestSpeculationStudySeedsErrors(t *testing.T) {
	if _, err := specdsm.SpeculationStudySeeds(specdsm.StudyConfig{}, nil); err == nil {
		t.Fatal("expected no-seeds error")
	}
}

func TestCharacterize(t *testing.T) {
	rows, err := specdsm.Characterize(specdsm.StudyConfig{Scale: 0.25, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string]specdsm.AppCharacterization{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Ops == 0 || r.Reads == 0 || r.Writes == 0 || r.Blocks == 0 {
			t.Fatalf("%s: degenerate %+v", r.App, r)
		}
		if r.SharedBlocks == 0 {
			t.Fatalf("%s: no shared blocks", r.App)
		}
		if r.Barriers == 0 {
			t.Fatalf("%s: no barriers", r.App)
		}
	}
	// unstructured has the widest read sharing of the suite on average
	// (individual blocks elsewhere — e.g., ocean's global reduction sum —
	// can reach full-machine degree).
	u := byApp["unstructured"]
	for app, r := range byApp {
		if app == "unstructured" {
			continue
		}
		if r.MeanReadDegree > u.MeanReadDegree {
			t.Errorf("%s mean read degree %.1f exceeds unstructured's %.1f",
				app, r.MeanReadDegree, u.MeanReadDegree)
		}
	}
	// moldyn and unstructured have migratory blocks; em3d does not.
	if byApp["moldyn"].MigratoryBlocks == 0 || byApp["unstructured"].MigratoryBlocks == 0 {
		t.Error("migratory apps show no migratory blocks")
	}
	if byApp["em3d"].MigratoryBlocks != 0 {
		t.Error("em3d should have single-writer blocks only")
	}
	// ocean is the only lock user.
	if byApp["ocean"].Locks == 0 {
		t.Error("ocean should use locks")
	}

	out := specdsm.RenderCharacterization(rows)
	if !strings.Contains(out, "unstructured") {
		t.Fatal("render missing content")
	}
}

func TestCharacterizeUnknownApp(t *testing.T) {
	if _, err := specdsm.Characterize(specdsm.StudyConfig{Apps: []string{"nope"}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRTLSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow for -short")
	}
	points, err := rtlPoints(specdsm.StudyConfig{}, "em3d", specdsm.WorkloadParams{
		Nodes: 8, Iterations: 4, Scale: 0.25,
	}, []int{20, 80, 240})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].RTL <= points[i-1].RTL {
			t.Fatalf("rtl not increasing: %+v", points)
		}
		// Figure 6 bottom-right: benefit grows with rtl.
		if points[i].Speedup < points[i-1].Speedup {
			t.Fatalf("speedup fell as rtl rose: %.3f -> %.3f (flight %d -> %d)",
				points[i-1].Speedup, points[i].Speedup,
				points[i-1].Flight, points[i].Flight)
		}
	}
	if points[len(points)-1].Speedup <= 1.0 {
		t.Fatalf("no benefit at high rtl: %+v", points[len(points)-1])
	}
	out := specdsm.RenderRTLSweep("em3d", points)
	if !strings.Contains(out, "speedup") {
		t.Fatal("render missing content")
	}
}

func TestNetworkFlightValidation(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 4, Iterations: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{NetworkFlight: -5}); err == nil {
		t.Fatal("expected negative-latency error")
	}
}
