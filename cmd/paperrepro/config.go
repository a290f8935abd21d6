package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"specdsm"
	"specdsm/internal/cli"
)

// options is the fully parsed and validated CLI configuration; flag
// handling lives here, separated from main's orchestration, so the
// flag→StudyConfig mapping is unit-testable.
type options struct {
	Only     string
	Seeds    []int64
	Progress bool
	// CPUProfile / MemProfile name pprof output files (empty = off), so
	// perf work can attach real profiles to a study run instead of
	// guessing at hot paths.
	CPUProfile string
	MemProfile string
	// CrashAfter, when positive, kills the process with exit status 3
	// after that many completed simulations — a deterministic
	// crash-injection hook for exercising checkpoint resume (used by
	// `make check`), not a user-facing feature.
	CrashAfter int
	Cfg        specdsm.StudyConfig
}

// parseOptions builds options from raw command-line arguments (without
// the program name). Usage and error text go to errOut.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	var o options
	names, ckpts, seeded := experimentIndex()
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.Only, "only", "", "run one experiment: "+strings.Join(names, ","))
	fs.Float64Var(&o.Cfg.Scale, "scale", 1.0, "workload scale factor")
	fs.Int64Var(&o.Cfg.Seed, "seed", 1, "workload generation seed")
	fs.IntVar(&o.Cfg.Iterations, "iters", 0, "override iteration count (0 = per-app default)")
	apps := fs.String("apps", "", "comma-separated application subset")
	fs.IntVar(&o.Cfg.Nodes, "nodes", 16, "machine size")
	seeds := fs.String("seeds", "", "comma-separated seeds: aggregate Figure 9 across them")
	fs.BoolVar(&o.Progress, "progress", false, "log per-simulation completion progress (with ETA) to stderr")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.IntVar(&o.CrashAfter, "crash-after", 0, "crash-injection test hook: exit(3) after N completed simulations")
	sw := cli.Bind(fs, &o.Cfg, ckpts...)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("paperrepro: unexpected argument %q", fs.Arg(0))
	}
	if o.CrashAfter < 0 {
		return options{}, fmt.Errorf("paperrepro: -crash-after must be positive, got %d", o.CrashAfter)
	}
	if o.Only != "" && !slices.Contains(names, o.Only) {
		return options{}, fmt.Errorf("paperrepro: unknown experiment %q (have %s)",
			o.Only, strings.Join(names, ","))
	}
	if *apps != "" {
		list, err := cli.SplitList("paperrepro", "-apps", *apps)
		if err != nil {
			return options{}, err
		}
		o.Cfg.Apps = list
	}
	if *seeds != "" {
		if o.Only != "" && !slices.Contains(seeded, o.Only) {
			return options{}, fmt.Errorf("paperrepro: -seeds aggregates Figure 9, so it runs without -only or with -only %s, not -only %s",
				strings.Join(seeded, " or -only "), o.Only)
		}
		list, err := cli.SplitList("paperrepro", "-seeds", *seeds)
		if err != nil {
			return options{}, err
		}
		for _, s := range list {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return options{}, fmt.Errorf("paperrepro: bad seed %q", s)
			}
			o.Seeds = append(o.Seeds, v)
		}
	}
	if err := sw.Check(); err != nil {
		return options{}, err
	}
	return o, nil
}

// experimentIndex reads the experiment table: the -only names, the
// checkpoint file suffixes and the experiments only a multi-seed run
// prints, each in table order.
func experimentIndex() (names, ckpts, seeded []string) {
	add := func(list []string, v string) []string {
		if v == "" || slices.Contains(list, v) {
			return list
		}
		return append(list, v)
	}
	for _, e := range specdsm.Experiments() {
		names, ckpts = add(names, e.Name), add(ckpts, e.Study)
		if !e.Prints(false) {
			seeded = add(seeded, e.Name)
		}
	}
	return names, ckpts, seeded
}
