package main

import (
	"flag"
	"fmt"
	"io"

	"specdsm"
	"specdsm/internal/cli"
)

// runSpec is the fully parsed and validated CLI configuration. Flag
// handling lives here, separated from main's orchestration, so the
// flag→options mapping is unit-testable.
type runSpec struct {
	// Cfg holds the workload parameters and the sweep flags. Cfg.Apps
	// names the applications to simulate (one result block each, in
	// order); it is empty when Pattern is set.
	Cfg      specdsm.StudyConfig
	Pattern  string
	Opts     specdsm.MachineOptions
	TraceOut string
	List     bool
}

// parseRun builds a runSpec from raw command-line arguments (without
// the program name). Usage and error text go to errOut.
func parseRun(args []string, errOut io.Writer) (runSpec, error) {
	var s runSpec
	fs := flag.NewFlagSet("specdsm", flag.ContinueOnError)
	fs.SetOutput(errOut)
	app := fs.String("app", "", "application workload(s), comma-separated (see -list)")
	fs.StringVar(&s.Pattern, "pattern", "", "micro pattern: producer-consumer, migratory, stencil")
	mode := fs.String("mode", "base", "DSM mode: base, fr, swi")
	fs.IntVar(&s.Cfg.Nodes, "nodes", 0, "machine size (default 16 for apps, 4 for patterns)")
	fs.IntVar(&s.Cfg.Iterations, "iters", 0, "iterations (0 = default)")
	fs.Float64Var(&s.Cfg.Scale, "scale", 1.0, "workload scale")
	fs.Int64Var(&s.Cfg.Seed, "seed", 1, "generation seed")
	predictor := fs.String("predictor", "", "active predictor kind override (Cosmos, MSP, VMSP)")
	depth := fs.Int("depth", 1, "active predictor history depth")
	conf := fs.Int("confidence", 0, "confidence threshold for speculation (0 = paper behaviour)")
	capacity := fs.Int("capacity", 0, "cache capacity in lines per node (0 = unbounded, paper assumption)")
	specUp := fs.Bool("spec-upgrades", false, "enable the migratory speculative-upgrade extension")
	observe := fs.Bool("observe", false, "attach Cosmos/MSP/VMSP observers (d=1) and report accuracy")
	fs.StringVar(&s.TraceOut, "trace-out", "", "capture the coherence message trace to this file")
	fs.BoolVar(&s.List, "list", false, "list applications and exit")
	sw := cli.Bind(fs, &s.Cfg, "sweep")
	if err := fs.Parse(args); err != nil {
		return runSpec{}, err
	}
	if fs.NArg() > 0 {
		return runSpec{}, fmt.Errorf("specdsm: unexpected argument %q", fs.Arg(0))
	}
	if *app != "" {
		list, err := cli.SplitList("specdsm", "-app", *app)
		if err != nil {
			return runSpec{}, err
		}
		s.Cfg.Apps = list
	}
	if err := sw.Check(); err != nil {
		return runSpec{}, err
	}
	if s.List {
		return s, nil
	}
	switch {
	case len(s.Cfg.Apps) > 0 && s.Pattern != "":
		return runSpec{}, fmt.Errorf("specdsm: -app and -pattern are mutually exclusive")
	case len(s.Cfg.Apps) == 0 && s.Pattern == "":
		return runSpec{}, fmt.Errorf("specdsm: need -app or -pattern (or -list)")
	case s.TraceOut != "" && len(s.Cfg.Apps) > 1:
		return runSpec{}, fmt.Errorf("specdsm: -trace-out needs a single workload, got %d apps", len(s.Cfg.Apps))
	}
	// A -pattern or -trace-out run is one direct simulation: the sweep
	// flags have no job space to manage there.
	if name := sw.Given(); name != "" && (s.Pattern != "" || s.TraceOut != "") {
		return runSpec{}, fmt.Errorf("specdsm: -%s needs an -app sweep", name)
	}

	s.Opts = specdsm.MachineOptions{
		Mode:          specdsm.Mode(*mode),
		SpecUpgrades:  *specUp,
		CacheCapacity: *capacity,
	}
	if *predictor != "" || *conf > 0 {
		kind := specdsm.VMSP
		if *predictor != "" {
			kind = specdsm.PredictorKind(*predictor)
		}
		s.Opts.Active = &specdsm.PredictorConfig{Kind: kind, Depth: *depth, Confidence: *conf}
	}
	if *observe {
		for _, k := range specdsm.Kinds() {
			s.Opts.Observers = append(s.Opts.Observers, specdsm.PredictorConfig{Kind: k, Depth: 1})
		}
	}
	return s, nil
}

// wp is the workload parameters the flags name.
func (s runSpec) wp() specdsm.WorkloadParams {
	return specdsm.WorkloadParams{Nodes: s.Cfg.Nodes, Iterations: s.Cfg.Iterations, Scale: s.Cfg.Scale, Seed: s.Cfg.Seed}
}

// workloads instantiates every workload the spec names, in order.
func (s runSpec) workloads() ([]specdsm.Workload, error) {
	if s.Pattern != "" {
		w, err := specdsm.MicroWorkload(specdsm.MicroPattern(s.Pattern), s.wp())
		if err != nil {
			return nil, err
		}
		return []specdsm.Workload{w}, nil
	}
	out := make([]specdsm.Workload, len(s.Cfg.Apps))
	for i, a := range s.Cfg.Apps {
		w, err := specdsm.AppWorkload(a, s.wp())
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
