package specdsm

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its artifact from the simulator and prints it once
// (run with -v or look at the bench log), reporting a headline scalar as
// a custom metric so regressions in the reproduced *shape* are visible in
// benchmark diffs.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig9 -benchtime=1x -v

import (
	"fmt"
	"sync"
	"testing"

	"specdsm/internal/analytic"
)

// benchApps names the paper's seven applications explicitly, so
// collecting a study's rows sizes its slice once.
var benchApps = AppNames()

// benchCfg keeps bench runs fast while preserving the paper's shapes.
// One worker makes a study's cost — allocs/op in particular, since each
// worker builds its own run arena — independent of the host's CPU count.
func benchCfg() StudyConfig {
	return StudyConfig{Apps: benchApps, Scale: 0.5, DisableChecks: true, Parallel: 1}
}

var (
	printMu sync.Mutex
	printed = map[string]bool{}
)

func printOnce(b *testing.B, name, text string) {
	printMu.Lock()
	defer printMu.Unlock()
	if printed[name] {
		return
	}
	printed[name] = true
	b.Logf("\n%s", text)
}

// BenchmarkFig6AnalyticModel regenerates the four panels of Figure 6 from
// Equations 1-2.
func BenchmarkFig6AnalyticModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels := analytic.Panels()
		for _, p := range panels {
			analytic.Figure6(p)
		}
		if len(panels) != 4 {
			b.Fatalf("got %d panels", len(panels))
		}
	}
	printOnce(b, "fig6", renderFigure6())
	// Headline: speedup at c=1 with perfect prediction equals rtl.
	b.ReportMetric(AnalyticSpeedup(AnalyticParams{C: 1, F: 1, P: 1, RTL: 4, N: 2}),
		"speedup@p=1,c=1")
}

func benchPredictor(b *testing.B, depths []int) []AppPrediction {
	b.Helper()
	cfg := benchCfg()
	cfg.Depths = depths
	study, err := collectRows(cfg, PredictorStudyStream)
	if err != nil {
		b.Fatal(err)
	}
	return study
}

// BenchmarkFig7PredictorAccuracy regenerates Figure 7: Cosmos vs MSP vs
// VMSP accuracy at history depth one across the seven applications.
func BenchmarkFig7PredictorAccuracy(b *testing.B) {
	var rows []Figure7Row
	for i := 0; i < b.N; i++ {
		rows = Figure7(benchPredictor(b, []int{1}))
	}
	printOnce(b, "fig7", RenderFigure7(rows))
	var cosmos, vmsp float64
	for _, r := range rows {
		cosmos += r.Cosmos
		vmsp += r.VMSP
	}
	n := float64(len(rows))
	b.ReportMetric(cosmos/n*100, "meanCosmos%")
	b.ReportMetric(vmsp/n*100, "meanVMSP%")
}

// BenchmarkFig8HistoryDepth regenerates Figure 8: accuracy at history
// depths 1, 2, and 4.
func BenchmarkFig8HistoryDepth(b *testing.B) {
	var rows []Figure8Row
	for i := 0; i < b.N; i++ {
		rows = Figure8(benchPredictor(b, []int{1, 2, 4}), []int{1, 2, 4})
	}
	printOnce(b, "fig8", RenderFigure8(rows))
	// Headline: appbt VMSP reaches ~100% at depth 2 (the paper's example
	// of depth disambiguating the alternating consumers).
	for _, r := range rows {
		if r.App == "appbt" {
			b.ReportMetric(r.Accuracy[VMSP][1]*100, "appbtVMSP@d2%")
		}
	}
}

// BenchmarkTable3LearningSpeed regenerates Table 3: fraction of messages
// predicted, and predicted correctly, at depth one.
func BenchmarkTable3LearningSpeed(b *testing.B) {
	var rows []Table3Row
	for i := 0; i < b.N; i++ {
		rows = Table3(benchPredictor(b, []int{1}))
	}
	printOnce(b, "table3", RenderTable3(rows))
	var cov float64
	for _, r := range rows {
		cov += r.Coverage[MSP]
	}
	b.ReportMetric(cov/float64(len(rows))*100, "meanMSPcoverage%")
}

// BenchmarkTable4StorageOverhead regenerates Table 4: pattern-table
// entries per block (d=1, d=4) and byte overhead (d=1).
func BenchmarkTable4StorageOverhead(b *testing.B) {
	var rows []Table4Row
	for i := 0; i < b.N; i++ {
		rows = Table4(benchPredictor(b, []int{1, 4}))
	}
	printOnce(b, "table4", RenderTable4(rows))
	var cosmos, vmsp float64
	for _, r := range rows {
		cosmos += r.PTE1[Cosmos]
		vmsp += r.PTE1[VMSP]
	}
	n := float64(len(rows))
	b.ReportMetric(cosmos/n, "meanCosmosPTE")
	b.ReportMetric(vmsp/n, "meanVMSPPTE")
}

func benchSpeculation(b *testing.B) []appSpeculation {
	b.Helper()
	study, err := collectRows(benchCfg(), speculationStudyStream)
	if err != nil {
		b.Fatal(err)
	}
	return study
}

// BenchmarkFig9SpeculativeDSM regenerates Figure 9: Base-DSM vs FR-DSM vs
// SWI-DSM normalized execution time with its computation/request split.
func BenchmarkFig9SpeculativeDSM(b *testing.B) {
	var rows []figure9Row
	for i := 0; i < b.N; i++ {
		rows = figure9(benchSpeculation(b))
	}
	printOnce(b, "fig9", renderFigure9(rows))
	var fr, swi float64
	for _, r := range rows {
		fr += r.Total(ModeFR)
		swi += r.Total(ModeSWI)
	}
	n := float64(len(rows))
	b.ReportMetric(fr/n, "meanFRexec%")   // paper: ~92
	b.ReportMetric(swi/n, "meanSWIexec%") // paper: ~88
}

// BenchmarkSeedsSpeculation runs the multi-seed Figure 9 aggregate (3
// seeds × 7 apps × 3 modes): the construction-heaviest study and the
// headline workload for the run-arena layer — per-worker machine reuse
// and the workload-generation cache amortize construction across the
// whole matrix.
func BenchmarkSeedsSpeculation(b *testing.B) {
	var agg []Figure9Aggregate
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = SpeculationStudySeeds(benchCfg(), []int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, "seeds", RenderFigure9Aggregate(agg))
	var swi float64
	for _, r := range agg {
		swi += r.SWIMean
	}
	b.ReportMetric(swi/float64(len(agg)), "meanSWIexec%")
}

// BenchmarkTable5Speculation regenerates Table 5: speculation and
// misspeculation frequencies.
func BenchmarkTable5Speculation(b *testing.B) {
	var rows []table5Row
	for i := 0; i < b.N; i++ {
		rows = table5(benchSpeculation(b))
	}
	printOnce(b, "table5", renderTable5(rows))
	for _, r := range rows {
		if r.App == "em3d" {
			b.ReportMetric(r.SWIInvalSent, "em3dSWIinval%") // paper: 98
		}
	}
}

// BenchmarkAblationActivePredictor compares the speculative DSM driven by
// each predictor kind (the paper uses VMSP; MSP/Cosmos chain individual
// read predictions) — an ablation of the design choice in §7.4.
func BenchmarkAblationActivePredictor(b *testing.B) {
	w, err := AppWorkload("em3d", WorkloadParams{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	base, err := Run(w, MachineOptions{Mode: ModeBase, DisableChecks: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range Kinds() {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			var r *RunResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = Run(w, MachineOptions{
					Mode:          ModeSWI,
					Active:        &PredictorConfig{Kind: kind, Depth: 1},
					DisableChecks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles)/float64(base.Cycles)*100, "exec%ofBase")
			b.ReportMetric(float64(r.SpecHits), "specHits")
		})
	}
}

// BenchmarkAblationSpecUpgrade measures the migratory speculative-upgrade
// extension on moldyn (the most migratory of the seven applications).
func BenchmarkAblationSpecUpgrade(b *testing.B) {
	w, err := AppWorkload("moldyn", WorkloadParams{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, ext := range []bool{false, true} {
		ext := ext
		name := "off"
		if ext {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var r *RunResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = Run(w, MachineOptions{
					Mode:          ModeSWI,
					SpecUpgrades:  ext,
					DisableChecks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(float64(r.Upgrades), "upgrades")
		})
	}
}

// BenchmarkAblationConfidence measures the confidence-gating extension on
// ocean, whose per-iteration-reordered lock reduction produces the wrong
// forwards that tax the serialized lock path; gating suppresses them.
func BenchmarkAblationConfidence(b *testing.B) {
	w, err := AppWorkload("ocean", WorkloadParams{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, conf := range []int{0, 2} {
		conf := conf
		b.Run(fmt.Sprintf("conf%d", conf), func(b *testing.B) {
			var r *RunResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = Run(w, MachineOptions{
					Mode:          ModeFR,
					Active:        &PredictorConfig{Kind: VMSP, Depth: 1, Confidence: conf},
					DisableChecks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(float64(r.SpecReadUnused), "wrongForwards")
		})
	}
}

// BenchmarkAblationCacheCapacity quantifies the paper's §6 assumption
// ("a remote cache large enough to hold the remote data"): shrinking the
// cache reintroduces capacity misses and erodes SWI-DSM's win on em3d.
func BenchmarkAblationCacheCapacity(b *testing.B) {
	w, err := AppWorkload("em3d", WorkloadParams{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, capacity := range []int{0, 256, 64, 24} {
		capacity := capacity
		name := "inf"
		if capacity > 0 {
			name = fmt.Sprintf("%dlines", capacity)
		}
		b.Run(name, func(b *testing.B) {
			var base, swi *RunResult
			for i := 0; i < b.N; i++ {
				var err error
				base, err = Run(w, MachineOptions{
					Mode: ModeBase, CacheCapacity: capacity, DisableChecks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				swi, err = Run(w, MachineOptions{
					Mode: ModeSWI, CacheCapacity: capacity, DisableChecks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(swi.Cycles)/float64(base.Cycles)*100, "swiExec%ofBase")
			b.ReportMetric(float64(base.Evictions), "baseEvictions")
		})
	}
}

// BenchmarkAblationHistoryDepthCost measures how pattern-table storage
// grows with history depth under re-ordered traffic (the Table 4 blow-up
// that makes deep histories impractical for Cosmos).
func BenchmarkAblationHistoryDepthCost(b *testing.B) {
	cfg := benchCfg()
	cfg.Apps = []string{"unstructured"}
	for _, d := range []int{1, 2, 4} {
		d := d
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			var study []AppPrediction
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Depths = []int{d}
				var err error
				study, err = collectRows(c, PredictorStudyStream)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(study[0].Get(Cosmos, d).EntriesPerBlock, "cosmosPTE")
			b.ReportMetric(study[0].Get(VMSP, d).EntriesPerBlock, "vmspPTE")
		})
	}
}
