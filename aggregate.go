package specdsm

import (
	"context"
	"fmt"

	"specdsm/internal/machine"
	"specdsm/internal/report"
	"specdsm/internal/sweep"
	"specdsm/internal/workload"
)

// Figure9Aggregate is Figure 9 across several workload-generation seeds:
// mean and standard deviation of normalized execution time per mode.
type Figure9Aggregate struct {
	App     string
	Seeds   int
	FRMean  float64
	FRStd   float64
	SWIMean float64
	SWIStd  float64
	// Failed counts (seed, app) cells dropped from the aggregate because
	// at least one of their mode runs failed under KeepGoing.
	Failed int
}

// SpeculationStudySeeds repeats the speculation study across seeds and
// aggregates Figure 9 per application. It quantifies how sensitive the
// reproduction's speedups are to the synthetic workloads' randomness.
//
// This is the scalable study: the full seeds×apps×modes simulation
// matrix streams through the cfg.Parallel-wide worker pool's bounded
// merge window into online per-application accumulators
// (report.Grouped), so peak memory is O(apps + window) no matter how
// many seeds the sweep covers — runs are folded into mean/std as they
// arrive and then dropped, never collected. Workloads are generated
// lazily inside each job (deduplicated by the process-wide generation
// cache), aggregation order is (seeds outer, cfg.Apps inner),
// independent of completion order, and cfg's checkpoint fields make the
// sweep resumable at single-simulation granularity.
func SpeculationStudySeeds(cfg StudyConfig, seeds []int64) ([]Figure9Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("specdsm: no seeds")
	}
	cfg = cfg.withDefaults()
	apps := cfg.Apps
	var fr, swi report.Grouped
	// failed is lazily allocated: it only exists on runs where some
	// (seed, app) cell actually failed under KeepGoing.
	var failed map[string]int
	rs := cfg.spec(seedsStudy, MachineOptions{DisableChecks: cfg.DisableChecks})
	rs.Seeds, rs.Modes = seeds, specModes
	// Cells arrive (seed, app)-major; each normalizes against its own
	// Base run and folds into its application's accumulators. Under
	// KeepGoing a cell with any failed mode is counted and skipped.
	err := streamStudy(cfg, rs, func(i int, runs []*RunResult, fails string) error {
		app := apps[i%len(apps)]
		if fails != "" {
			if failed == nil {
				failed = map[string]int{}
			}
			failed[app]++
			return nil
		}
		base := float64(runs[0].Cycles)
		fr.Add(app, float64(runs[1].Cycles)/base*100)
		swi.Add(app, float64(runs[2].Cycles)/base*100)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Figure9Aggregate, 0, len(apps))
	for _, app := range apps {
		f, s := fr.Get(app), swi.Get(app)
		if f == nil {
			if failed[app] > 0 {
				out = append(out, Figure9Aggregate{App: app, Failed: failed[app]})
			}
			continue
		}
		out = append(out, Figure9Aggregate{
			App:    app,
			Seeds:  int(f.N()),
			FRMean: f.Mean(), FRStd: f.Std(),
			SWIMean: s.Mean(), SWIStd: s.Std(),
			Failed: failed[app],
		})
	}
	return out, nil
}

// RenderFigure9Aggregate prints the multi-seed Figure 9.
func RenderFigure9Aggregate(rows []Figure9Aggregate) string {
	t := report.NewTable("Figure 9 across seeds: normalized execution time, mean ± std",
		"Application", "Seeds", "FR-DSM", "SWI-DSM")
	var failed int
	for _, r := range rows {
		failed += r.Failed
		if r.Seeds == 0 {
			t.AddFailed("", r.App, "0")
			continue
		}
		t.AddRow(r.App, fmt.Sprint(r.Seeds),
			fmt.Sprintf("%5.1f ± %4.1f", r.FRMean, r.FRStd),
			fmt.Sprintf("%5.1f ± %4.1f", r.SWIMean, r.SWIStd))
	}
	if failed > 0 {
		t.AddNote("%d (seed, app) cell(s) dropped: at least one mode run failed", failed)
	}
	return t.String()
}

// rtlPoint is one row of the empirical remote-to-local sweep.
type rtlPoint struct {
	// Flight is the configured network flight latency in cycles.
	Flight int
	// RTL is the measured remote-to-local latency ratio for a clean
	// two-hop read ( (258 + 2·flight) / 104 with default node timing ).
	RTL float64
	// BaseCycles / SWICycles are the measured execution times.
	BaseCycles int64
	SWICycles  int64
	// Speedup is Base/SWI.
	Speedup float64
	// Failed marks a keep-going FAILED point (per-mode error text); the
	// cycle counts and speedup are zero.
	Failed string
}

// rtlSweepStream measures SWI-DSM's benefit as the interconnect slows
// down — the empirical analogue of Figure 6's bottom-right panel: the
// higher the remote-to-local ratio (clusters like NUMA-Q), the more a
// speculative coherent DSM helps. Each flight point (nil flights
// selects 20, 80, 200 and 320 cycles) is emitted in flight order,
// regardless of completion order, as soon as its Base and SWI runs
// merge. Only cfg's execution fields matter — Parallel,
// OnJobDone/Progress, KeepGoing, Retries, FaultSpec, Remote, and the
// checkpoint fields, which make the sweep resumable per simulation;
// workload shape comes from p. Returning an error from emit stops the
// sweep.
func rtlSweepStream(cfg StudyConfig, app string, p WorkloadParams, flights []int, emit func(i int, pt rtlPoint) error) error {
	if len(flights) == 0 {
		flights = []int{20, 80, 200, 320}
	}
	cfg = cfg.withDefaults()
	if _, err := AppWorkload(app, p); err != nil {
		return err
	}
	rs := cfg.spec(rtlStudy, MachineOptions{DisableChecks: true})
	rs.Apps, rs.WP, rs.Flights, rs.Modes = []string{app}, p, flights, []Mode{ModeBase, ModeSWI}
	return streamStudy(cfg, rs, func(i int, runs []*RunResult, failed string) error {
		f := flights[i]
		pt := rtlPoint{Flight: f, RTL: (258 + 2*float64(f)) / 104, Failed: failed}
		if failed == "" {
			pt.BaseCycles, pt.SWICycles = runs[0].Cycles, runs[1].Cycles
			pt.Speedup = float64(pt.BaseCycles) / float64(pt.SWICycles)
		}
		return emit(i, pt)
	})
}

// renderRTLSweep prints the sweep.
func renderRTLSweep(app string, points []rtlPoint) string {
	t := report.NewTable(
		fmt.Sprintf("Empirical rtl sweep (%s): SWI-DSM speedup vs interconnect latency", app),
		"flight (cycles)", "rtl", "Base cycles", "SWI cycles", "speedup")
	for _, p := range points {
		if p.Failed != "" {
			t.AddFailed(fmt.Sprintf("flight %d failed: %s", p.Flight, p.Failed), fmt.Sprint(p.Flight), report.F1(p.RTL))
			continue
		}
		t.AddRow(fmt.Sprint(p.Flight), report.F1(p.RTL),
			fmt.Sprint(p.BaseCycles), fmt.Sprint(p.SWICycles),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	t.AddNote("Figure 6 bottom-right, measured: higher rtl (cluster interconnects) gains more")
	return t.String()
}

// appCharacterization summarizes a generated workload's sharing structure
// without simulating it (a static property of the generator).
type appCharacterization struct {
	App    string
	Ops    int
	Reads  int
	Writes int
	// SharedBlocks counts blocks accessed by more than one node.
	Blocks       int
	SharedBlocks int
	// MeanReadDegree is the mean number of distinct reader nodes per
	// shared block.
	MeanReadDegree float64
	// MaxReadDegree is the widest read sharing observed.
	MaxReadDegree int
	// MigratoryBlocks counts shared blocks written by 2+ distinct nodes.
	MigratoryBlocks int
	Barriers        int
	Locks           int
	// Failed marks a keep-going FAILED row; every count is zero.
	Failed string
}

// characterizeApps statically analyzes the generated programs of each app.
// Generation (served by the process-wide cache, so a later simulation
// study reuses the same programs) and analysis run per-application on
// the cfg.Parallel-wide worker pool. The pool keeps the study's retries
// and fault injection but not OnJobDone or Progress, which count
// simulations, and characterization simulates nothing.
func characterizeApps(cfg StudyConfig) ([]appCharacterization, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.spec("characterize", MachineOptions{}).pool(cfg.Parallel)
	if err != nil {
		return nil, err
	}
	var out []appCharacterization
	emit := collect(&out)
	var o sweep.Options
	if cfg.KeepGoing {
		o.Fail = func(i int, err error) error {
			return emit(i, appCharacterization{App: cfg.Apps[i], Failed: err.Error()})
		}
	}
	err = sweep.Run(context.Background(), p, len(cfg.Apps), o, nil,
		func(_ context.Context, _ struct{}, i int) (appCharacterization, error) {
			name := cfg.Apps[i]
			app, ok := workload.ByName(name)
			if !ok {
				return appCharacterization{}, fmt.Errorf("specdsm: unknown application %q", name)
			}
			return characterize(name, workload.Programs(app, workload.Params(cfg.workloadParams()))), nil
		},
		emit)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func characterize(name string, progs []machine.Program) appCharacterization {
	c := appCharacterization{App: name}
	readers := map[uint64]map[int]bool{}
	writers := map[uint64]map[int]bool{}
	touched := map[uint64]map[int]bool{}
	for n, prog := range progs {
		c.Ops += len(prog)
		for _, op := range prog {
			switch op.Kind {
			case machine.OpRead:
				c.Reads++
				addSet(readers, uint64(op.Addr), n)
				addSet(touched, uint64(op.Addr), n)
			case machine.OpWrite:
				c.Writes++
				addSet(writers, uint64(op.Addr), n)
				addSet(touched, uint64(op.Addr), n)
			case machine.OpBarrier:
				if n == 0 {
					c.Barriers++
				}
			case machine.OpLock:
				if n == 0 {
					c.Locks++
				}
			}
		}
	}
	c.Blocks = len(touched)
	var degreeSum int
	for addr, nodes := range touched {
		if len(nodes) < 2 {
			continue
		}
		c.SharedBlocks++
		deg := len(readers[addr])
		degreeSum += deg
		if deg > c.MaxReadDegree {
			c.MaxReadDegree = deg
		}
		if len(writers[addr]) >= 2 {
			c.MigratoryBlocks++
		}
	}
	if c.SharedBlocks > 0 {
		c.MeanReadDegree = float64(degreeSum) / float64(c.SharedBlocks)
	}
	return c
}

func addSet(m map[uint64]map[int]bool, k uint64, n int) {
	s := m[k]
	if s == nil {
		s = map[int]bool{}
		m[k] = s
	}
	s[n] = true
}

// renderCharacterization prints the per-application sharing structure.
func renderCharacterization(rows []appCharacterization) string {
	t := report.NewTable("Workload characterization (static, per generated run)",
		"Application", "ops", "reads", "writes", "blocks", "shared",
		"read deg (mean/max)", "migratory", "barriers", "locks")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		t.AddRow(r.App,
			fmt.Sprint(r.Ops), fmt.Sprint(r.Reads), fmt.Sprint(r.Writes),
			fmt.Sprint(r.Blocks), fmt.Sprint(r.SharedBlocks),
			fmt.Sprintf("%.1f / %d", r.MeanReadDegree, r.MaxReadDegree),
			fmt.Sprint(r.MigratoryBlocks),
			fmt.Sprint(r.Barriers), fmt.Sprint(r.Locks))
	}
	return t.String()
}
