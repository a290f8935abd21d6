// Command paperrepro regenerates every table and figure of the paper's
// evaluation (Lai & Falsafi, ISCA 1999) from the simulator:
//
//	paperrepro                 # every table and figure of the paper
//	paperrepro -only fig7      # one experiment: table1, table2,
//	                           # characterize, fig6, rtl, scaling, fig7,
//	                           # fig8, table3, table4, fig9 or table5
//	paperrepro -only scaling -apps em3d,moldyn -scale 0.25
//	                           # beyond-paper studies (rtl, scaling) run
//	                           # only when -only names them
//	paperrepro -scale 0.5      # smaller workloads (faster)
//	paperrepro -apps em3d,moldyn
//	paperrepro -seed 7
//	paperrepro -seeds 1,2,3    # Figure 9 as mean ± std across seeds
//	                           # (alone or with -only fig9)
//	paperrepro -parallel 8     # simulations per batch; output is
//	                           # byte-identical for every -parallel value
//	paperrepro -progress       # per-simulation completion log with ETA
//	paperrepro -cpuprofile cpu.pprof -memprofile mem.pprof
//	                           # attach pprof profiles to the run
//	paperrepro -checkpoint ck -checkpoint-every 8
//	                           # persist completed simulations to ck.<study>
//	paperrepro -checkpoint ck -resume
//	                           # continue an interrupted run from ck.<study>
//	paperrepro -checkpoint ck -resume-salvage
//	                           # like -resume, but truncate a corrupted
//	                           # checkpoint to its longest valid prefix
//	paperrepro -retries 3      # retry transiently failed simulations
//	paperrepro -keep-going     # record fatal failures as FAILED rows
//	                           # (plus a manifest) instead of aborting
//	paperrepro -faults seed=7,transient=0.2
//	                           # deterministic fault injection (testing)
//	paperrepro -remote 127.0.0.1:7701,127.0.0.1:7702
//	                           # fan simulations out to sweepd workers;
//	                           # dead shards are re-dispatched, output is
//	                           # still byte-identical to -parallel 1
//
// Simulated results depend only on the flags (runs are deterministic):
// the sweep engine merges parallel simulation results back in submission
// order, so -parallel N reproduces -parallel 1 exactly — including an
// interrupted -checkpoint run resumed with -resume, which replays the
// saved rows and simulates only the remainder.
package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"specdsm"
	"specdsm/internal/cli"
)

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		cli.Exit("paperrepro", cli.Usage(err))
	}
	stopProfiles, err := startProfiles(o)
	if err != nil {
		cli.Exit("paperrepro", cli.Usage(err))
	}
	err = run(o, os.Stdout)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	cli.Exit("paperrepro", err)
}

// startProfiles arms the pprof collectors the flags request and returns
// the function that finalizes them: the CPU profile stops, and the heap
// profile is written after a GC so it reflects live steady-state memory,
// not transient garbage. Profiles observe the run without perturbing its
// output (stdout carries only the reproduced tables either way).
func startProfiles(o options) (stop func() error, err error) {
	var cpuFile *os.File
	if o.CPUProfile != "" {
		cpuFile, err = os.Create(o.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("paperrepro: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("paperrepro: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("paperrepro: %w", err)
			}
		}
		if o.MemProfile != "" {
			f, err := os.Create(o.MemProfile)
			if err != nil {
				return fmt.Errorf("paperrepro: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("paperrepro: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}

// session is one run's state: the study config, the rows of every study
// that has run, and the keep-going failures noted so far.
type session struct {
	cfg     specdsm.StudyConfig
	seeds   []int64
	failed  []string
	chars   []specdsm.AppCharacterization
	rtl     []specdsm.RTLPoint
	scaling []specdsm.NodeScaling
	pred    []specdsm.AppPrediction
	spec    []specdsm.AppSpeculation
	agg     []specdsm.Figure9Aggregate
}

// note records a keep-going failure for the manifest when failed is set.
func (s *session) note(failed bool, format string, args ...any) {
	if failed {
		s.failed = append(s.failed, fmt.Sprintf(format, args...))
	}
}

// manifest lists the keep-going failures, so a long run ends with an
// explicit list of what did not complete.
func (s *session) manifest(out io.Writer) {
	if len(s.failed) == 0 {
		return
	}
	fmt.Fprintf(out, "FAILED jobs (%d, kept going):\n", len(s.failed))
	for _, f := range s.failed {
		fmt.Fprintf(out, "  %s\n", f)
	}
}

// collect returns a study stream's emit function: it appends each row.
func collect[T any](rows *[]T) func(int, T) error {
	return func(_ int, r T) error {
		*rows = append(*rows, r)
		return nil
	}
}

// A study is one simulation sweep. The experiments rendering it sit
// next to each other in the table and share one run of it, timed from
// its first experiment to its last.
type study struct {
	// ckpt is the -checkpoint file suffix: PATH.<ckpt> ("" = none).
	ckpt string
	// timing formats the wall-clock line after its last experiment
	// ("" = none).
	timing string
	// optIn studies go beyond the paper and run only when -only names
	// them.
	optIn bool
	// last studies end a run: the FAILED manifest prints before their
	// timing line instead of after it.
	last bool
	run  func(*session) error
}

var (
	characterization = &study{run: func(s *session) error {
		rows, err := specdsm.Characterize(s.cfg)
		for _, r := range rows {
			s.note(r.Failed != "", "characterize %s: %s", r.App, r.Failed)
		}
		s.chars = rows
		return err
	}}
	rtlSweep = &study{ckpt: "rtl", timing: "[rtl sweep: %v]\n", optIn: true, last: true, run: func(s *session) error {
		wp := specdsm.WorkloadParams{Nodes: s.cfg.Nodes, Scale: s.cfg.Scale, Seed: s.cfg.Seed, Iterations: s.cfg.Iterations}
		err := specdsm.RTLSweepStream(s.cfg, "em3d", wp, nil, collect(&s.rtl))
		for _, p := range s.rtl {
			s.note(p.Failed != "", "rtl flight %d: %s", p.Flight, p.Failed)
		}
		return err
	}}
	nodeScaling = &study{ckpt: "scaling", timing: "[scaling study: %v]\n", optIn: true, last: true, run: func(s *session) error {
		err := specdsm.NodeScalingStudyStream(s.cfg, nil, collect(&s.scaling))
		for _, r := range s.scaling {
			s.note(r.Failed != "", "scaling %s @ %d nodes: %s", r.App, r.Nodes, r.Failed)
		}
		return err
	}}
	predictor = &study{ckpt: "predictor", timing: "[predictor study: %v]\n\n", run: func(s *session) error {
		err := specdsm.PredictorStudyStream(s.cfg, collect(&s.pred))
		for _, r := range s.pred {
			s.note(r.Failed != "", "predictor %s: %s", r.App, r.Failed)
		}
		return err
	}}
	speculation = &study{ckpt: "speculation", timing: "[speculation study: %v]\n", run: func(s *session) error {
		err := specdsm.SpeculationStudyStream(s.cfg, collect(&s.spec))
		for _, r := range s.spec {
			s.note(r.Failed != "", "speculation %s: %s", r.App, r.Failed)
		}
		return err
	}}
	seedAggregate = &study{ckpt: "seeds", timing: "[multi-seed study: %v]\n", last: true, run: func(s *session) (err error) {
		s.agg, err = specdsm.SpeculationStudySeeds(s.cfg, s.seeds)
		for _, a := range s.agg {
			s.note(a.Failed > 0, "seeds %s: %d (seed, app) cell(s) failed", a.App, a.Failed)
		}
		return err
	}}
)

// An experiment is one -only value: a table or figure and the study it
// renders (nil for the ones that simulate nothing).
type experiment struct {
	name   string
	study  *study
	render func(*session) string
}

// experiments lists every experiment in print order.
var experiments = []experiment{
	{"table1", nil, func(*session) string { return specdsm.RenderTable1() }},
	{"table2", nil, func(*session) string { return specdsm.RenderTable2() }},
	{"characterize", characterization, func(s *session) string { return specdsm.RenderCharacterization(s.chars) }},
	{"fig6", nil, func(*session) string { return specdsm.RenderFigure6() }},
	{"rtl", rtlSweep, func(s *session) string { return specdsm.RenderRTLSweep("em3d", s.rtl) }},
	{"scaling", nodeScaling, func(s *session) string { return specdsm.RenderNodeScaling(s.scaling) }},
	{"fig7", predictor, func(s *session) string { return specdsm.RenderFigure7(specdsm.Figure7(s.pred)) }},
	{"fig8", predictor, func(s *session) string { return specdsm.RenderFigure8(specdsm.Figure8(s.pred, nil)) }},
	{"table3", predictor, func(s *session) string { return specdsm.RenderTable3(specdsm.Table3(s.pred)) }},
	{"table4", predictor, func(s *session) string { return specdsm.RenderTable4(specdsm.Table4(s.pred)) }},
	{"fig9", speculation, func(s *session) string { return specdsm.RenderFigure9(specdsm.Figure9(s.spec)) }},
	{"table5", speculation, func(s *session) string { return specdsm.RenderTable5(specdsm.Table5(s.spec)) }},
}

// fig9Seeds is Figure 9 under -seeds: mean and spread across the seeds.
var fig9Seeds = experiment{"fig9", seedAggregate, func(s *session) string {
	return specdsm.RenderFigure9Aggregate(s.agg)
}}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// checkpointFiles lists the suffixes of the files -checkpoint writes.
func checkpointFiles() []string {
	var files []string
	for _, e := range append(experiments, fig9Seeds) {
		if e.study != nil && e.study.ckpt != "" && !slices.Contains(files, e.study.ckpt) {
			files = append(files, e.study.ckpt)
		}
	}
	return files
}

// plan lists the experiments the run prints, in order: the one -only
// names, or every one of the paper's. With -seeds, Figure 9 is the seed
// aggregate, and the other experiments on the single-seed predictor and
// speculation studies do not run.
func (o options) plan() []experiment {
	var plan []experiment
	for _, e := range experiments {
		optIn := e.study != nil && e.study.optIn
		switch {
		case o.Only != "" && e.name != o.Only, o.Only == "" && optIn:
		case len(o.Seeds) > 0 && (e.study == predictor || e.study == speculation):
			if e.name == fig9Seeds.name {
				plan = append(plan, fig9Seeds)
			}
		default:
			plan = append(plan, e)
		}
	}
	return plan
}

func run(o options, out io.Writer) error {
	s := &session{cfg: o.Cfg, seeds: o.Seeds}
	if o.Progress {
		// Per-simulation completion lines with ETA on stderr (stdout
		// carries only the reproduced tables/figures, byte-identical
		// either way).
		s.cfg.Progress = slog.New(slog.NewTextHandler(os.Stderr, nil))
		// With a shard fleet, surface its lifecycle (connects, deaths,
		// reconnects, degradation) on stderr too.
		s.cfg.RemoteLogf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "paperrepro: remote: "+format+"\n", args...)
		}
	}
	if o.CrashAfter > 0 {
		// Deterministic crash injection for the checkpoint-resume gate in
		// `make check`: die mid-sweep exactly where asked, leaving
		// whatever the checkpoint cadence has flushed so far.
		var done atomic.Int64
		user := s.cfg.OnJobDone
		s.cfg.OnJobDone = func(i int, d time.Duration) {
			if user != nil {
				user(i, d)
			}
			if done.Add(1) == int64(o.CrashAfter) {
				fmt.Fprintf(os.Stderr, "paperrepro: -crash-after %d reached, aborting\n", o.CrashAfter)
				os.Exit(3)
			}
		}
	}
	plan := o.plan()
	var start time.Time
	for i, e := range plan {
		st := e.study
		if st != nil && (i == 0 || plan[i-1].study != st) {
			start = time.Now()
			if err := st.run(s); err != nil {
				return err
			}
		}
		fmt.Fprintln(out, e.render(s))
		if st == nil || st.timing == "" || i+1 < len(plan) && plan[i+1].study == st {
			continue
		}
		if st.last {
			s.manifest(out)
			s.failed = nil
		}
		fmt.Fprintf(out, st.timing, time.Since(start).Round(time.Millisecond))
	}
	s.manifest(out)
	return nil
}
