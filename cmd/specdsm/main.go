// Command specdsm runs one or more workloads on a single DSM
// configuration and prints each run's measurements:
//
//	specdsm -app em3d -mode swi
//	specdsm -app unstructured -mode fr -scale 0.5 -seed 3
//	specdsm -app em3d,moldyn,ocean -mode swi -parallel 4
//	specdsm -pattern producer-consumer -mode swi -nodes 4
//	specdsm -app moldyn -mode swi -predictor MSP -depth 2
//	specdsm -app moldyn -mode swi -spec-upgrades
//	specdsm -app em3d,moldyn,ocean -checkpoint run.ck -resume
//	specdsm -app em3d,moldyn,ocean -keep-going
//	specdsm -app em3d,moldyn,ocean -remote 127.0.0.1:7701,127.0.0.1:7702
//
// An -app run is a sweep: with a comma-separated -app list the
// simulations fan out across a -parallel-wide worker pool, and reports
// stream out in the order the apps were named, independent of
// completion order. App sweeps take the sweep flags paperrepro takes:
// -checkpoint/-resume persist and continue interrupted runs (-resume
// keeps each checkpoint's longest valid prefix), -retries and -faults
// retry and inject failures, -keep-going prints fatally failed
// simulations as FAILED blocks instead of aborting, and -remote fans
// the sweep out to sweepd shard workers — in every case the report
// stream stays byte-identical to a plain -parallel 1 run. A -pattern or -trace-out run is one direct
// simulation and takes no sweep flag.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"specdsm"
	"specdsm/internal/cli"
	"specdsm/internal/sweep"
)

func main() {
	spec, err := parseRun(os.Args[1:], os.Stderr)
	if err != nil {
		cli.Exit("specdsm", cli.Usage(err))
	}
	if spec.List {
		for _, a := range specdsm.AppInfos() {
			fmt.Printf("%-13s %s\n", a.Name, a.Description)
		}
		return
	}
	cli.Exit("specdsm", run(spec, os.Stdout))
}

func run(spec runSpec, out io.Writer) error {
	workloads, err := spec.workloads()
	if err != nil {
		return err
	}

	if spec.Pattern != "" || spec.TraceOut != "" {
		// One direct simulation; parseRun refused the sweep flags.
		w := workloads[0]
		if spec.TraceOut == "" {
			r, err := specdsm.Run(w, spec.Opts)
			if err != nil {
				return err
			}
			return writeReport(out, r, w.Ops(), spec.Opts)
		}
		f, err := os.Create(spec.TraceOut)
		if err != nil {
			return err
		}
		r, sum, err := specdsm.CaptureTrace(w, spec.Opts, f)
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace               %s (%d events, %d blocks)\n", spec.TraceOut, sum.Events, sum.Blocks)
		return writeReport(out, r, w.Ops(), spec.Opts)
	}

	// App sweeps run through the library's study engine, which layers
	// checkpoint/resume, keep-going, and remote shard dispatch over the
	// worker pool. The engine merges results in index order, so the
	// report stream is byte-identical at any -parallel value or -remote
	// fleet size.
	var fail sweep.FailFunc
	if spec.Cfg.KeepGoing {
		fail = func(i int, ferr error) error {
			if i > 0 {
				fmt.Fprintln(out)
			}
			_, werr := fmt.Fprintf(out, "workload            %s\nFAILED              %v\n", spec.Cfg.Apps[i], ferr)
			return werr
		}
	}
	return specdsm.RunSweepStream(spec.Cfg, spec.Opts,
		func(i int, r *specdsm.RunResult) error {
			if i > 0 {
				fmt.Fprintln(out)
			}
			return writeReport(out, r, workloads[i].Ops(), spec.Opts)
		}, fail)
}

// writeReport prints one run's measurement block. The block is staged
// in a builder so out sees a single write whose error (e.g. a broken
// pipe mid-sweep) aborts the remaining reports instead of vanishing.
func writeReport(out io.Writer, r *specdsm.RunResult, ops int, opts specdsm.MachineOptions) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload            %s (%d nodes, %d ops)\n", r.Workload, r.Nodes, ops)
	fmt.Fprintf(&b, "mode                %s\n", r.Mode)
	fmt.Fprintf(&b, "execution time      %d cycles\n", r.Cycles)
	fmt.Fprintf(&b, "compute cycles      %d\n", r.ComputeCycles)
	fmt.Fprintf(&b, "sync cycles         %d\n", r.SyncCycles)
	fmt.Fprintf(&b, "request wait cycles %d (%.1f%% of processor time)\n",
		r.RequestWaitCycles, r.RequestShare()*100)
	fmt.Fprintf(&b, "requests            %d reads, %d writes, %d upgrades\n",
		r.Reads, r.Writes, r.Upgrades)
	if r.Mode != specdsm.ModeBase {
		fmt.Fprintf(&b, "speculative reads   %d via FR, %d via SWI (%d hits, %d verified misses, %d dropped)\n",
			r.SpecReadsFR, r.SpecReadsSWI, r.SpecHits, r.SpecReadUnused, r.SpecDropped)
		fmt.Fprintf(&b, "SWI                 %d recalls, %d premature\n", r.SWIRecalls, r.SWIPremature)
	}
	if opts.CacheCapacity > 0 {
		fmt.Fprintf(&b, "cache               %d lines/node, %d evictions (%d writebacks)\n",
			opts.CacheCapacity, r.Evictions, r.EvictionWritebacks)
		if opts.SpecUpgrades {
			fmt.Fprintf(&b, "spec upgrades       %d granted, %d misfires\n", r.SpecUpgrades, r.SpecUpgradeMisfires)
		}
	}
	for _, p := range r.Predictors {
		fmt.Fprintf(&b, "predictor %-7s d=%d  accuracy %5.1f%%  coverage %5.1f%%  pte %.1f\n",
			p.Kind, p.Depth, p.Accuracy*100, p.Coverage*100, p.EntriesPerBlock)
	}
	_, err := io.WriteString(out, b.String())
	return err
}
