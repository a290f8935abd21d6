// Command perfbench is the repository's end-to-end benchmark. It drives
// the specdsm library from outside — the root package's study entry
// points, the exported functions of the internal/* packages, and real
// sweepd processes — over three closed-loop workloads (predict,
// speculate, fleet), checks the rendered study output against a digest
// gate, and prints one JSON result line.
//
// It is normally started through run.sh, which builds it and sweepd
// from the checkout first:
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a traced run records the per-layer metrics instead. See
// README.md in this directory for every metric's definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sweepd   string // sweepd binary the fleet workload launches
	workdir  string // scratch directory for checkpoints, digests, spans
	// Internal modes: a fresh-process set-up probe, and a profiling
	// shard worker for the traced fleet run.
	setupProbe bool
	serve      bool
	cpuProfile string
	statsOut   string
}

func parseOptions(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: predict, speculate or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "first workload-generation seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured study time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records the per-layer metrics in a traced run")
	fs.StringVar(&o.sweepd, "sweepd", "", "path of the sweepd binary (fleet workload)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for checkpoints, digests and spans")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "internal: report the first job's start time and exit")
	fs.BoolVar(&o.serve, "serve", false, "internal: serve as a profiling shard worker")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "internal: CPU profile path for -serve")
	fs.StringVar(&o.statsOut, "stats", "", "internal: runtime statistics path for -serve")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("perfbench: unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("perfbench: --trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.serve {
		return o, nil
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("perfbench: unknown workload %q (want predict, speculate or fleet)", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("perfbench: --seconds must be positive, got %g", o.seconds)
	}
	if workloads[o.workload].remote && o.sweepd == "" {
		return o, errors.New("perfbench: the fleet workload needs --sweepd")
	}
	return o, nil
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.serve {
		if err := serveWorker(o.cpuProfile, o.statsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Every child process and scratch path is registered with the
	// reaper. On an interrupt the children stop at once; the run
	// returns at its next check (between rounds, or between probes)
	// and the scratch files go after it, so no study writes a file
	// into a directory being removed. A run that does not return in
	// time is cleaned up regardless.
	r := &reaper{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children and removing scratch files\n", s)
		r.interrupt()
		time.Sleep(time.Minute)
		r.stop()
		os.Exit(130)
	}()
	exit := func(code int) {
		r.stop()
		if r.interrupted.Load() {
			code = 130
		}
		os.Exit(code)
	}

	if o.setupProbe {
		if err := setupProbe(o, r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}

	res, err := run(o, r)
	if r.interrupted.Load() {
		exit(130)
	}
	r.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run of o.workload and returns its result.
func run(o options, r *reaper) (result, error) {
	w := workloads[o.workload]
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	r.removeLater(dir)
	env := &runEnv{opts: o, w: w, dir: dir, reaper: r, digests: digestStore{dir: filepath.Join(o.workdir, "digests")}}
	if o.trace {
		return tracedRun(env)
	}
	return timedRun(env)
}
