package specdsm

import (
	"context"
	"fmt"
	"strings"

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
	nApps, nModes := len(cfg.Apps), len(specModes)
	n := len(seeds) * nApps * nModes
	var fr, swi report.Grouped
	// failed is lazily allocated: it only exists on runs where some
	// (seed, app) cell actually failed under KeepGoing.
	var failed map[string]int
	// triple is the assembly window: the ordered merge delivers runs
	// (seed, app, mode)-major, so every nModes deliveries complete one
	// (seed, app) cell, which normalizes against its own Base run and
	// folds into that application's accumulators. Under KeepGoing a cell
	// with any failed mode is counted and skipped instead of folded.
	triple := make([]modeRun, 0, nModes)
	push := func(j int, r *RunResult, errText string) error {
		triple = append(triple, modeRun{r: r, errText: errText})
		if len(triple) < nModes {
			return nil
		}
		app := cfg.Apps[(j/nModes)%nApps]
		if tripleFailure(triple) != "" {
			if failed == nil {
				failed = map[string]int{}
			}
			failed[app]++
		} else {
			base := float64(triple[0].r.Cycles)
			fr.Add(app, float64(triple[1].r.Cycles)/base*100)
			swi.Add(app, float64(triple[2].r.Cycles)/base*100)
		}
		triple = triple[:0]
		return nil
	}
	var fail sweep.FailFunc
	if cfg.KeepGoing {
		fail = func(j int, jerr error) error { return push(j, nil, jerr.Error()) }
	}
	rs := cfg.spec("seeds")
	rs.Seeds = seeds
	err := streamStudy(cfg, rs, n, seedsJob(cfg, seeds),
		func(j int, r *RunResult) error { return push(j, r, "") },
		fail)
	if err != nil {
		return nil, err
	}
	out := make([]Figure9Aggregate, 0, nApps)
	for _, app := range cfg.Apps {
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

// seedsJob builds the multi-seed speculation study's job function:
// (seed, app, mode)-major over the seeds×apps×modes matrix. Shared
// between the in-process pool and remote workers.
func seedsJob(cfg StudyConfig, seeds []int64) func(context.Context, *machine.Arena, int) (*RunResult, error) {
	apps, baseWP, checks := cfg.Apps, cfg.workloadParams(), cfg.DisableChecks
	nApps, nModes := len(apps), len(specModes)
	return func(_ context.Context, arena *machine.Arena, j int) (*RunResult, error) {
		wp := baseWP
		wp.Seed = seeds[j/(nApps*nModes)]
		if wp.Seed == 0 {
			wp.Seed = 1
		}
		w, err := AppWorkload(apps[(j/nModes)%nApps], wp)
		if err != nil {
			return nil, err
		}
		return runInArena(arena, w, MachineOptions{
			Mode:          specModes[j%nModes],
			DisableChecks: checks,
		})
	}
}

// RenderFigure9Aggregate prints the multi-seed Figure 9.
func RenderFigure9Aggregate(rows []Figure9Aggregate) string {
	t := report.NewTable("Figure 9 across seeds: normalized execution time, mean ± std",
		"Application", "Seeds", "FR-DSM", "SWI-DSM")
	var failed int
	for _, r := range rows {
		failed += r.Failed
		if r.Seeds == 0 {
			t.AddRow(r.App, "0", "FAILED", "FAILED")
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

// RTLPoint is one row of the empirical remote-to-local sweep.
type RTLPoint struct {
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

// RTLSweep measures SWI-DSM's benefit as the interconnect slows down —
// the empirical analogue of Figure 6's bottom-right panel: the higher the
// remote-to-local ratio (clusters like NUMA-Q), the more a speculative
// coherent DSM helps. Runs with default parallelism (one worker per
// CPU); use RTLSweepParallel to pin the worker count.
func RTLSweep(app string, p WorkloadParams, flights []int) ([]RTLPoint, error) {
	return RTLSweepParallel(app, p, flights, 0)
}

// RTLSweepParallel is RTLSweep on a parallel-wide worker pool (0 or
// negative selects runtime.NumCPU()). The flight×{Base, SWI} simulation
// matrix fans out as independent jobs; output is identical for every
// worker count.
func RTLSweepParallel(app string, p WorkloadParams, flights []int, parallel int) ([]RTLPoint, error) {
	var out []RTLPoint
	err := RTLSweepStream(StudyConfig{Parallel: parallel}, app, p, flights,
		func(_ int, pt RTLPoint) error {
			out = append(out, pt)
			return nil
		})
	return out, err
}

// RTLSweepStream is the streaming rtl sweep: each flight point is
// emitted (in flight order, regardless of completion order) as soon as
// its Base and SWI runs merge, instead of collecting the whole sweep.
// Only cfg's execution fields matter — Parallel, OnJobDone/Progress,
// and the checkpoint fields, which make the sweep resumable per
// simulation; workload shape comes from p. Returning an error from emit
// stops the sweep.
func RTLSweepStream(cfg StudyConfig, app string, p WorkloadParams, flights []int, emit func(i int, pt RTLPoint) error) error {
	if len(flights) == 0 {
		flights = []int{20, 80, 200, 320}
	}
	cfg = cfg.withDefaults()
	n := 2 * len(flights)
	w, err := AppWorkload(app, p)
	if err != nil {
		return err
	}
	// pair is the assembly window for the current flight's {Base, SWI}
	// runs; under KeepGoing a pair with any failed run emits a FAILED
	// point instead of a ratio.
	pair := make([]modeRun, 0, 2)
	push := func(j int, r *RunResult, errText string) error {
		pair = append(pair, modeRun{r: r, errText: errText})
		if len(pair) < 2 {
			return nil
		}
		i, f := j/2, flights[j/2]
		pt := RTLPoint{Flight: f, RTL: (258 + 2*float64(f)) / 104}
		if ft := rtlFailure(pair); ft != "" {
			pt.Failed = ft
		} else {
			pt.BaseCycles = pair[0].r.Cycles
			pt.SWICycles = pair[1].r.Cycles
			pt.Speedup = float64(pair[0].r.Cycles) / float64(pair[1].r.Cycles)
		}
		pair = pair[:0]
		return emit(i, pt)
	}
	var fail sweep.FailFunc
	if cfg.KeepGoing {
		fail = func(j int, jerr error) error { return push(j, nil, jerr.Error()) }
	}
	rs := cfg.spec("rtl")
	rs.RTLApp, rs.RTLParams, rs.RTLFlights = app, p, flights
	return streamStudy(cfg, rs, n, rtlJob(w, flights),
		func(j int, r *RunResult) error { return push(j, r, "") },
		fail)
}

// rtlJob builds the rtl sweep's job function: flight j/2 of the axis,
// Base for even j, SWI for odd. Shared between the in-process pool and
// remote workers (which regenerate w from the spec's app and params).
func rtlJob(w Workload, flights []int) func(context.Context, *machine.Arena, int) (*RunResult, error) {
	return func(_ context.Context, arena *machine.Arena, j int) (*RunResult, error) {
		mode := ModeBase
		if j%2 == 1 {
			mode = ModeSWI
		}
		return runInArena(arena, w, MachineOptions{Mode: mode, NetworkFlight: flights[j/2], DisableChecks: true})
	}
}

// rtlFailure joins the failed modes of an assembled {Base, SWI} pair.
func rtlFailure(pair []modeRun) string {
	var parts []string
	for k, e := range pair {
		if e.errText == "" {
			continue
		}
		mode := ModeBase
		if k == 1 {
			mode = ModeSWI
		}
		parts = append(parts, fmt.Sprintf("%s: %s", mode, e.errText))
	}
	return strings.Join(parts, "; ")
}

// RenderRTLSweep prints the sweep.
func RenderRTLSweep(app string, points []RTLPoint) string {
	t := report.NewTable(
		fmt.Sprintf("Empirical rtl sweep (%s): SWI-DSM speedup vs interconnect latency", app),
		"flight (cycles)", "rtl", "Base cycles", "SWI cycles", "speedup")
	for _, p := range points {
		if p.Failed != "" {
			t.AddRow(fmt.Sprint(p.Flight), report.F1(p.RTL), "FAILED", "FAILED", "FAILED")
			t.AddNote("flight %d failed: %s", p.Flight, p.Failed)
			continue
		}
		t.AddRow(fmt.Sprint(p.Flight), report.F1(p.RTL),
			fmt.Sprint(p.BaseCycles), fmt.Sprint(p.SWICycles),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	t.AddNote("Figure 6 bottom-right, measured: higher rtl (cluster interconnects) gains more")
	return t.String()
}

// AppCharacterization summarizes a generated workload's sharing structure
// without simulating it (a static property of the generator).
type AppCharacterization struct {
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

// Characterize statically analyzes the generated programs of each app.
// Generation (served by the process-wide cache, so a later simulation
// study reuses the same programs) and analysis run per-application on
// the cfg.Parallel-wide worker pool.
func Characterize(cfg StudyConfig) ([]AppCharacterization, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.pool(len(cfg.Apps))
	if err != nil {
		return nil, err
	}
	out := make([]AppCharacterization, 0, len(cfg.Apps))
	emit := func(_ int, c AppCharacterization) error {
		out = append(out, c)
		return nil
	}
	fail := failRow(cfg, emit, func(i int, errText string) AppCharacterization {
		return AppCharacterization{App: cfg.Apps[i], Failed: errText}
	})
	err = sweep.Run(context.Background(), p, len(cfg.Apps), sweep.Options{Fail: fail}, nil,
		func(_ context.Context, _ struct{}, i int) (AppCharacterization, error) {
			name := cfg.Apps[i]
			app, ok := workload.ByName(name)
			if !ok {
				return AppCharacterization{}, fmt.Errorf("specdsm: unknown application %q", name)
			}
			progs := workload.Programs(app, workload.Params{
				Nodes:      cfg.Nodes,
				Iterations: cfg.Iterations,
				Scale:      cfg.Scale,
				Seed:       cfg.Seed,
			})
			return characterize(name, progs), nil
		},
		emit)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func characterize(name string, progs []machine.Program) AppCharacterization {
	c := AppCharacterization{App: name}
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

// RenderCharacterization prints the per-application sharing structure.
func RenderCharacterization(rows []AppCharacterization) string {
	t := report.NewTable("Workload characterization (static, per generated run)",
		"Application", "ops", "reads", "writes", "blocks", "shared",
		"read deg (mean/max)", "migratory", "barriers", "locks")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddRow(r.App,
				"FAILED", "FAILED", "FAILED", "FAILED", "FAILED",
				"FAILED", "FAILED", "FAILED", "FAILED")
			t.AddNote("%s failed: %s", r.App, r.Failed)
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
