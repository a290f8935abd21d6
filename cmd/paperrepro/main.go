// Command paperrepro regenerates every table and figure of the paper's
// evaluation (Lai & Falsafi, ISCA 1999) from the simulator:
//
//	paperrepro                 # everything
//	paperrepro -only fig7      # one experiment (table1..table5, fig6..fig9)
//	paperrepro -only scaling -apps em3d,moldyn -scale 0.25
//	                           # beyond-paper node-count scaling study
//	paperrepro -scale 0.5      # smaller workloads (faster)
//	paperrepro -apps em3d,moldyn
//	paperrepro -seed 7
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"specdsm"
	"specdsm/internal/sweep"
)

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	err = run(o)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	var km *sweep.KeyMismatchError
	if errors.As(err, &km) {
		// The checkpoint is intact but belongs to a different study
		// configuration — name the differing parameters and the fix
		// instead of dumping raw keys. Exit 2 distinguishes "wrong
		// invocation" from runtime failure (1).
		fmt.Fprintf(os.Stderr, "paperrepro: checkpoint %s was recorded under different study parameters:\n", km.Path)
		for _, line := range km.Diff() {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		fmt.Fprintf(os.Stderr, "fix: rerun with the flags listed above, or remove %s to start this configuration fresh\n", km.Path)
		fmt.Fprintln(os.Stderr, "(-resume-salvage repairs corruption, not configuration changes; it would refuse too)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
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

func run(o options) error {
	cfg := o.Cfg
	// failed collects keep-going FAILED jobs across studies, in study
	// then job-index order; the manifest prints once after the tables so
	// a long run ends with an explicit list of what did not complete.
	var failed []string
	note := func(format string, args ...any) {
		failed = append(failed, fmt.Sprintf(format, args...))
	}
	manifest := func() {
		if len(failed) == 0 {
			return
		}
		fmt.Printf("FAILED jobs (%d, kept going):\n", len(failed))
		for _, f := range failed {
			fmt.Printf("  %s\n", f)
		}
	}
	if cfg.Salvage {
		cfg.OnSalvage = func(study string, rep sweep.SalvageReport) {
			fmt.Fprintf(os.Stderr, "paperrepro: checkpoint %s.%s: salvaged %d rows, dropped %d bytes (%s)\n",
				cfg.CheckpointPath, study, rep.Rows, rep.DroppedBytes, rep.Reason)
		}
	}
	if o.Progress {
		// Per-simulation completion lines with ETA on stderr (stdout
		// carries only the reproduced tables/figures, byte-identical
		// either way).
		cfg.Progress = slog.New(slog.NewTextHandler(os.Stderr, nil))
		// With a shard fleet, surface its lifecycle (connects, deaths,
		// reconnects, degradation) on stderr too.
		cfg.RemoteLogf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "paperrepro: remote: "+format+"\n", args...)
		}
	}
	if o.CrashAfter > 0 {
		// Deterministic crash injection for the checkpoint-resume gate in
		// `make check`: die mid-sweep exactly where asked, leaving
		// whatever the checkpoint cadence has flushed so far.
		var done atomic.Int64
		user := cfg.OnJobDone
		cfg.OnJobDone = func(i int, d time.Duration) {
			if user != nil {
				user(i, d)
			}
			if done.Add(1) == int64(o.CrashAfter) {
				fmt.Fprintf(os.Stderr, "paperrepro: -crash-after %d reached, aborting\n", o.CrashAfter)
				os.Exit(3)
			}
		}
	}
	if o.want("table1") {
		fmt.Println(specdsm.RenderTable1())
	}
	if o.want("table2") {
		fmt.Println(specdsm.RenderTable2())
	}
	if o.want("characterize") {
		rows, err := specdsm.Characterize(cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.Failed != "" {
				note("characterize %s: %s", r.App, r.Failed)
			}
		}
		fmt.Println(specdsm.RenderCharacterization(rows))
	}
	if o.want("fig6") {
		fmt.Println(specdsm.RenderFigure6())
	}
	if o.Only == "rtl" {
		start := time.Now()
		var points []specdsm.RTLPoint
		err := specdsm.RTLSweepStream(cfg, "em3d", specdsm.WorkloadParams{
			Nodes: cfg.Nodes, Scale: cfg.Scale, Seed: cfg.Seed, Iterations: cfg.Iterations,
		}, nil, func(_ int, p specdsm.RTLPoint) error {
			if p.Failed != "" {
				note("rtl flight %d: %s", p.Flight, p.Failed)
			}
			points = append(points, p)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Println(specdsm.RenderRTLSweep("em3d", points))
		manifest()
		fmt.Printf("[rtl sweep: %v]\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	if o.Only == "scaling" {
		// Beyond-paper study: like rtl it only runs when asked for, so
		// the default output stays the paper's tables, byte for byte.
		start := time.Now()
		var rows []specdsm.NodeScaling
		err := specdsm.NodeScalingStudyStream(cfg, nil, func(_ int, r specdsm.NodeScaling) error {
			if r.Failed != "" {
				note("scaling %s @ %d nodes: %s", r.App, r.Nodes, r.Failed)
			}
			rows = append(rows, r)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Println(specdsm.RenderNodeScaling(rows))
		manifest()
		fmt.Printf("[scaling study: %v]\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	if len(o.Seeds) > 0 {
		start := time.Now()
		agg, err := specdsm.SpeculationStudySeeds(cfg, o.Seeds)
		if err != nil {
			return err
		}
		for _, a := range agg {
			if a.Failed > 0 {
				note("seeds %s: %d (seed, app) cell(s) failed", a.App, a.Failed)
			}
		}
		fmt.Println(specdsm.RenderFigure9Aggregate(agg))
		manifest()
		fmt.Printf("[multi-seed study: %v]\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	needPred := o.want("fig7") || o.want("fig8") || o.want("table3") || o.want("table4")
	if needPred {
		start := time.Now()
		var study []specdsm.AppPrediction
		err := specdsm.PredictorStudyStream(cfg, func(_ int, r specdsm.AppPrediction) error {
			if r.Failed != "" {
				note("predictor %s: %s", r.App, r.Failed)
			}
			study = append(study, r)
			return nil
		})
		if err != nil {
			return err
		}
		if o.want("fig7") {
			fmt.Println(specdsm.RenderFigure7(specdsm.Figure7(study)))
		}
		if o.want("fig8") {
			fmt.Println(specdsm.RenderFigure8(specdsm.Figure8(study, nil)))
		}
		if o.want("table3") {
			fmt.Println(specdsm.RenderTable3(specdsm.Table3(study)))
		}
		if o.want("table4") {
			fmt.Println(specdsm.RenderTable4(specdsm.Table4(study)))
		}
		fmt.Printf("[predictor study: %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	needSpec := o.want("fig9") || o.want("table5")
	if needSpec {
		start := time.Now()
		var study []specdsm.AppSpeculation
		err := specdsm.SpeculationStudyStream(cfg, func(_ int, r specdsm.AppSpeculation) error {
			if r.Failed != "" {
				note("speculation %s: %s", r.App, r.Failed)
			}
			study = append(study, r)
			return nil
		})
		if err != nil {
			return err
		}
		if o.want("fig9") {
			fmt.Println(specdsm.RenderFigure9(specdsm.Figure9(study)))
		}
		if o.want("table5") {
			fmt.Println(specdsm.RenderTable5(specdsm.Table5(study)))
		}
		fmt.Printf("[speculation study: %v]\n", time.Since(start).Round(time.Millisecond))
	}
	manifest()
	return nil
}
