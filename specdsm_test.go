package specdsm

import (
	"strings"
	"testing"

	"specdsm/internal/analytic"
	"specdsm/internal/machine"
)

func TestAppNamesAndInfos(t *testing.T) {
	names := AppNames()
	if len(names) != 7 {
		t.Fatalf("AppNames = %v", names)
	}
	infos := AppInfos()
	if len(infos) != 7 {
		t.Fatalf("AppInfos = %d entries", len(infos))
	}
	for _, in := range infos {
		if in.PaperInput == "" || in.PaperIterations == 0 {
			t.Errorf("%s missing Table 2 metadata", in.Name)
		}
	}
}

func TestAppWorkloadErrors(t *testing.T) {
	if _, err := AppWorkload("nope", WorkloadParams{}); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if _, err := MicroWorkload("nope", WorkloadParams{}); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

// TestNodeCountRange pins the machine-size bounds the workload
// generators support, [2, 4096]: out-of-range counts are errors at
// every entry point — before any job runs — never a panic inside one.
func TestNodeCountRange(t *testing.T) {
	for _, n := range []int{1, -4, 5000} {
		if _, err := AppWorkload("em3d", WorkloadParams{Nodes: n}); err == nil {
			t.Errorf("AppWorkload accepted %d nodes", n)
		}
		if err := (StudyConfig{Nodes: n}).Validate(); err == nil || !strings.Contains(err.Error(), "invalid node count") {
			t.Errorf("Validate(Nodes: %d) = %v, want an invalid node count error", n, err)
		}
		cfg := StudyConfig{Apps: []string{"em3d"}, Scale: 0.1, KeepGoing: true}
		err := nodeScalingStudyStream(cfg, []int{8, n}, func(int, nodeScaling) error {
			t.Fatalf("scaling study with %d nodes emitted a row", n)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "invalid node count") {
			t.Errorf("nodeScalingStudyStream(%d nodes) = %v, want an invalid node count error", n, err)
		}
	}
	for _, n := range []int{0, 2, 4096} {
		if err := (StudyConfig{Nodes: n}).Validate(); err != nil {
			t.Errorf("Validate(Nodes: %d) = %v", n, err)
		}
	}
	if _, err := AppWorkload("em3d", WorkloadParams{Nodes: 2, Scale: 0.1}); err != nil {
		t.Errorf("AppWorkload(2 nodes) = %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	w, err := AppWorkload("em3d", WorkloadParams{Nodes: 4, Iterations: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, MachineOptions{Mode: "warp"}); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if _, err := Run(w, MachineOptions{
		Observers: []PredictorConfig{{Kind: "Oracle", Depth: 1}},
	}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
	if _, err := Run(w, MachineOptions{
		Observers: []PredictorConfig{{Kind: MSP, Depth: 0}},
	}); err == nil {
		t.Fatal("expected bad-depth error")
	}
	if _, err := Run(w, MachineOptions{SpecUpgrades: true}); err == nil {
		t.Fatal("expected error: SpecUpgrades without speculation mode")
	}
	if _, err := Run(Workload{}, MachineOptions{}); err == nil {
		t.Fatal("expected empty-workload error")
	}
}

func TestRunBaseCollectsCounters(t *testing.T) {
	w, err := AppWorkload("tomcatv", WorkloadParams{Nodes: 8, Iterations: 2, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(w, MachineOptions{
		Mode:      ModeBase,
		Observers: []PredictorConfig{{Kind: VMSP, Depth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Reads == 0 || r.WriteLike() == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.RequestShare() <= 0 || r.RequestShare() >= 1 {
		t.Fatalf("request share %v out of range", r.RequestShare())
	}
	pr, ok := r.Predictor(VMSP, 1)
	if !ok || pr.Tracked == 0 {
		t.Fatalf("missing predictor result: %+v", r.Predictors)
	}
	if _, ok := r.Predictor(Cosmos, 1); ok {
		t.Fatal("unexpected predictor result")
	}
	if r.SpecHits != 0 || r.SpecReadsFR != 0 {
		t.Fatal("speculation counters must be zero in base mode")
	}
}

func TestSpeculationModesOrdering(t *testing.T) {
	w, err := AppWorkload("em3d", WorkloadParams{Nodes: 8, Iterations: 6, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) *RunResult {
		r, err := Run(w, MachineOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(ModeBase)
	fr := run(ModeFR)
	swi := run(ModeSWI)
	if !(swi.Cycles < fr.Cycles && fr.Cycles < base.Cycles) {
		t.Fatalf("em3d ordering violated: base %d, fr %d, swi %d",
			base.Cycles, fr.Cycles, swi.Cycles)
	}
	if swi.SWIRecalls == 0 || swi.SpecReadsSWI == 0 {
		t.Fatalf("SWI inactive: %+v", swi)
	}
	if fr.SpecReadsSWI != 0 {
		t.Fatal("FR-DSM must not perform SWI")
	}
}

// The headline result of the paper, asserted as shape: at default machine
// size with modest scale, VMSP's mean accuracy beats MSP's, which beats
// Cosmos's, and VMSP wins most on the re-ordering-heavy applications.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := collectRows(StudyConfig{
		Scale:         0.5,
		Depths:        []int{1},
		DisableChecks: true,
	}, PredictorStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	rows := Figure7(study)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	var cosmos, msp, vmsp float64
	byApp := map[string]Figure7Row{}
	for _, r := range rows {
		cosmos += r.Cosmos
		msp += r.MSP
		vmsp += r.VMSP
		byApp[r.App] = r
	}
	n := float64(len(rows))
	cosmos, msp, vmsp = cosmos/n, msp/n, vmsp/n
	if !(vmsp > msp && msp > cosmos) {
		t.Fatalf("mean accuracy ordering violated: Cosmos %.3f MSP %.3f VMSP %.3f", cosmos, msp, vmsp)
	}
	if vmsp < 0.85 {
		t.Fatalf("mean VMSP accuracy %.3f below the paper's ~93%% ballpark", vmsp)
	}
	// Wide read re-ordering (unstructured): VMSP far above MSP.
	u := byApp["unstructured"]
	if u.VMSP < u.MSP+0.3 {
		t.Fatalf("unstructured: VMSP %.3f should dominate MSP %.3f", u.VMSP, u.MSP)
	}
	// tomcatv is fully predictable for every predictor.
	tv := byApp["tomcatv"]
	if tv.Cosmos < 0.9 || tv.MSP < 0.95 || tv.VMSP < 0.95 {
		t.Fatalf("tomcatv should be near-perfect: %+v", tv)
	}
}

func TestFigure8DepthMonotonicityOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := collectRows(StudyConfig{
		Scale:         0.25,
		Depths:        []int{1, 2, 4},
		DisableChecks: true,
	}, PredictorStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	rows := Figure8(study, []int{1, 2, 4})
	for _, kind := range Kinds() {
		var means [3]float64
		for _, r := range rows {
			for i := range r.Depths {
				means[i] += r.Accuracy[kind][i]
			}
		}
		if !(means[2] >= means[0]) {
			t.Fatalf("%s: depth 4 mean %.3f below depth 1 %.3f", kind, means[2], means[0])
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := collectRows(StudyConfig{
		Scale:         0.25,
		Depths:        []int{1, 4},
		DisableChecks: true,
	}, PredictorStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Table4(study) {
		if !(r.PTE1[Cosmos] >= r.PTE1[MSP]) {
			t.Errorf("%s: Cosmos pte %.1f < MSP %.1f", r.App, r.PTE1[Cosmos], r.PTE1[MSP])
		}
		// VMSP needs at most as many entries as MSP, up to noise on
		// single-consumer apps where runs are single-reader (the paper
		// shows them equal on ocean and tomcatv).
		if !(r.PTE1[MSP] >= r.PTE1[VMSP]-0.5) {
			t.Errorf("%s: MSP pte %.1f < VMSP %.1f", r.App, r.PTE1[MSP], r.PTE1[VMSP])
		}
		if !(r.PTE4[Cosmos] >= r.PTE1[Cosmos]) {
			t.Errorf("%s: Cosmos pte should grow with depth", r.App)
		}
		// MSP storage is roughly half of Cosmos (the paper's claim).
		if r.Bytes[MSP] > 0.75*r.Bytes[Cosmos] {
			t.Errorf("%s: MSP bytes %.1f not well under Cosmos %.1f",
				r.App, r.Bytes[MSP], r.Bytes[Cosmos])
		}
	}
}

func TestValidateConfig(t *testing.T) {
	if err := (StudyConfig{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (StudyConfig{Apps: []string{"nope"}}).Validate(); err == nil {
		t.Fatal("expected unknown-app error")
	}
	if err := (StudyConfig{Depths: []int{0}}).Validate(); err == nil {
		t.Fatal("expected bad-depth error")
	}
}

func TestAnalyticReexports(t *testing.T) {
	p := AnalyticParams{C: 1, F: 1, P: 1, RTL: 4, N: 2}
	if got := AnalyticSpeedup(p); got < 3.99 || got > 4.01 {
		t.Fatalf("speedup = %v", got)
	}
	if got := AnalyticCommSpeedup(p); got < 3.99 || got > 4.01 {
		t.Fatalf("comm speedup = %v", got)
	}
	panels := analytic.Panels()
	if len(panels) != 4 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if len(analytic.Figure6(p)) == 0 || p.String() == "" {
			t.Fatalf("malformed panel %+v", p.String())
		}
	}
}

func TestRenderers(t *testing.T) {
	if s := renderTable1(); !strings.Contains(s, "418") {
		t.Error("Table 1 missing round-trip latency")
	}
	if s := renderTable2(); !strings.Contains(s, "em3d") {
		t.Error("Table 2 missing applications")
	}
	if s := renderFigure6(); !strings.Contains(s, "rtl") {
		t.Error("Figure 6 missing curves")
	}
	rows := []Figure7Row{{App: "em3d", Cosmos: 0.85, MSP: 0.99, VMSP: 0.99}}
	if s := RenderFigure7(rows); !strings.Contains(s, "em3d") || !strings.Contains(s, "99.0") {
		t.Error("Figure 7 render wrong")
	}
	t3 := []Table3Row{{
		App:      "em3d",
		Coverage: map[PredictorKind]float64{Cosmos: 0.9, MSP: 0.9, VMSP: 0.9},
		Correct:  map[PredictorKind]float64{Cosmos: 0.8, MSP: 0.8, VMSP: 0.8},
	}}
	if s := RenderTable3(t3); !strings.Contains(s, "90.0 (80.0)") {
		t.Errorf("Table 3 render wrong:\n%s", RenderTable3(t3))
	}
}

func TestMicroWorkloadsRunAllModes(t *testing.T) {
	for _, pat := range []MicroPattern{
		PatternProducerConsumer,
		PatternMigratory,
		PatternStencil,
	} {
		w, err := MicroWorkload(pat, WorkloadParams{Nodes: 4, Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeBase, ModeFR, ModeSWI} {
			if _, err := Run(w, MachineOptions{Mode: mode}); err != nil {
				t.Fatalf("%s/%s: %v", pat, mode, err)
			}
		}
	}
}

func TestFiniteCacheCapacity(t *testing.T) {
	w, err := AppWorkload("em3d", WorkloadParams{Nodes: 8, Iterations: 4, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := Run(w, MachineOptions{Mode: ModeSWI})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(w, MachineOptions{Mode: ModeSWI, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d lines", inf.Evictions)
	}
	if small.Evictions == 0 {
		t.Fatal("16-line cache never evicted")
	}
	// Capacity misses reintroduce request traffic and slow the run.
	if small.Cycles <= inf.Cycles {
		t.Fatalf("finite cache not slower: %d vs %d", small.Cycles, inf.Cycles)
	}
	if _, err := Run(w, MachineOptions{CacheCapacity: -1}); err == nil {
		t.Fatal("expected negative-capacity error")
	}
}

// All seven applications must run under all three modes with coherence
// checking enabled — the broadest integration test in the suite.
func TestAllAppsAllModes(t *testing.T) {
	for _, app := range AppNames() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			w, err := AppWorkload(app, WorkloadParams{
				Nodes: 16, Iterations: 3, Scale: 0.25, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{ModeBase, ModeFR, ModeSWI} {
				if _, err := Run(w, MachineOptions{Mode: mode}); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
		})
	}
}

// TestAccessClassesCoverEveryAccess ties the processors' access classes
// to the programs: on every processor, Hits+SpecHits+Locals+Remotes is
// the number of reads and writes its program issues, and the reported
// SpecHits is the processors' sum.
func TestAccessClassesCoverEveryAccess(t *testing.T) {
	for _, app := range AppNames() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			w, err := AppWorkload(app, WorkloadParams{Nodes: 16, Scale: 0.25, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			ops := make([]uint64, len(w.programs))
			for i, prog := range w.programs {
				for _, op := range prog {
					if op.Kind == machine.OpRead || op.Kind == machine.OpWrite {
						ops[i]++
					}
				}
			}
			for _, mode := range []Mode{ModeBase, ModeFR, ModeSWI} {
				cfg, _, err := buildConfig(w, MachineOptions{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				res, err := machine.New(cfg).Run(w.programs)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				var specHits uint64
				for i, p := range res.Procs {
					if got := p.Hits + p.SpecHits + p.Locals + p.Remotes; got != ops[i] {
						t.Errorf("%s: proc %d classes sum to %d, program has %d reads and writes", mode, i, got, ops[i])
					}
					specHits += p.SpecHits
				}
				if r := convert(w, mode, res); r.SpecHits != specHits {
					t.Errorf("%s: RunResult.SpecHits = %d, processors' sum %d", mode, r.SpecHits, specHits)
				}
				if mode == ModeSWI && specHits == 0 {
					t.Errorf("%s: no speculative hits", mode)
				}
			}
		})
	}
}

// TestConvertAllocs pins convert at two allocations for a 16-node run
// with nine predictors: the RunResult and its Predictors slice, sized
// once rather than grown by append (which took 6).
func TestConvertAllocs(t *testing.T) {
	res := &machine.Result{
		Procs:      make([]machine.ProcStats, 16),
		Predictors: make([]machine.PredictorResult, 9),
	}
	w := Workload{Name: "em3d", Nodes: 16}
	if avg := testing.AllocsPerRun(20, func() { convert(w, ModeBase, res) }); avg > 2 {
		t.Errorf("convert allocates %.2f/op, want at most 2", avg)
	}
}
