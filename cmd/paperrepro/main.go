// Command paperrepro regenerates every table and figure of the paper's
// evaluation (Lai & Falsafi, ISCA 1999) from the simulator:
//
//	paperrepro                 # every table and figure of the paper
//	paperrepro -only fig7      # one experiment (-h lists them all, in
//	                           # the order of specdsm.Experiments)
//	paperrepro -only scaling -apps em3d,moldyn -scale 0.25
//	                           # beyond-paper studies run only when
//	                           # -only names them
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
//	                           # continue an interrupted run from ck.<study>,
//	                           # keeping each file's longest valid prefix
//	paperrepro -retries 3      # retry transiently failed simulations
//	paperrepro -keep-going     # record fatal failures as FAILED rows
//	                           # (plus a manifest after each study's
//	                           # artifacts) instead of aborting
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

// plan lists the experiments the run prints, in table order: the one
// -only names, or every one of the paper's, as a single- or multi-seed
// run prints them.
func (o options) plan() []specdsm.Experiment {
	var plan []specdsm.Experiment
	for _, e := range specdsm.Experiments() {
		if (o.Only == "" && !e.OptIn || e.Name == o.Only) && e.Prints(len(o.Seeds) > 0) {
			plan = append(plan, e)
		}
	}
	return plan
}

func run(o options, out io.Writer) error {
	cfg := o.Cfg
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
	// Experiments on one study share one run of it, timed from its first
	// experiment to its last. The study's keep-going failures follow its
	// last experiment, before the timing line.
	plan := o.plan()
	var (
		rows  specdsm.Rows
		start time.Time
	)
	for i, e := range plan {
		if e.Study == "" || i == 0 || plan[i-1].Study != e.Study {
			start = time.Now()
			var err error
			if rows, err = e.Run(cfg, o.Seeds); err != nil {
				return err
			}
		}
		if err := e.Render(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if e.Study != "" && i+1 < len(plan) && plan[i+1].Study == e.Study {
			continue
		}
		manifest(out, rows.Failed)
		if e.Timing != "" {
			fmt.Fprintf(out, e.Timing, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// manifest lists a study's keep-going failures, so each study's output
// ends with an explicit list of what did not complete.
func manifest(out io.Writer, failed []string) {
	if len(failed) == 0 {
		return
	}
	fmt.Fprintf(out, "FAILED jobs (%d, kept going):\n", len(failed))
	for _, f := range failed {
		fmt.Fprintf(out, "  %s\n", f)
	}
}
