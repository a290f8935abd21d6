package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"specdsm"
	"specdsm/internal/cli"
)

// options is the fully parsed and validated CLI configuration. Every
// kind and depth is checked here, at parse time, against the library's
// supported sets — a typo exits with usage status 2 and the valid
// choices, instead of surfacing as a mid-evaluation failure (or, for
// depths the predictor core cannot hold, a panic).
type options struct {
	In      string
	Configs []specdsm.PredictorConfig
}

// parseOptions builds options from raw command-line arguments (without
// the program name). Usage and error text go to errOut.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("traceeval", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		in     = fs.String("in", "", "trace file (required)")
		depths = fs.String("depths", "1", "comma-separated history depths, each in [1,"+strconv.Itoa(specdsm.MaxDepth)+"]")
		kinds  = fs.String("kinds", kindList(","), "comma-separated predictor kinds")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("traceeval: unexpected argument %q", fs.Arg(0))
	}
	if *in == "" {
		return options{}, fmt.Errorf("traceeval: -in is required")
	}
	ks, err := parseKinds(*kinds)
	if err != nil {
		return options{}, err
	}
	ds, err := parseDepths(*depths)
	if err != nil {
		return options{}, err
	}
	o := options{In: *in}
	for _, k := range ks {
		for _, d := range ds {
			o.Configs = append(o.Configs, specdsm.PredictorConfig{Kind: k, Depth: d})
		}
	}
	return o, nil
}

func parseKinds(csv string) ([]specdsm.PredictorKind, error) {
	list, err := cli.SplitList("traceeval", "-kinds", csv)
	if err != nil {
		return nil, err
	}
	var out []specdsm.PredictorKind
	for _, s := range list {
		k, ok := kindByName(s)
		if !ok {
			return nil, fmt.Errorf("traceeval: unknown predictor kind %q (have %s)", s, kindList(", "))
		}
		out = append(out, k)
	}
	return out, nil
}

func parseDepths(csv string) ([]int, error) {
	list, err := cli.SplitList("traceeval", "-depths", csv)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, s := range list {
		d, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("traceeval: bad depth %q (want an integer in [1,%d])", s, specdsm.MaxDepth)
		}
		if d < 1 || d > specdsm.MaxDepth {
			return nil, fmt.Errorf("traceeval: depth %d out of range [1,%d]", d, specdsm.MaxDepth)
		}
		out = append(out, d)
	}
	return out, nil
}

func kindByName(name string) (specdsm.PredictorKind, bool) {
	for _, k := range specdsm.Kinds() {
		if string(k) == name {
			return k, true
		}
	}
	return "", false
}

func kindList(sep string) string {
	var names []string
	for _, k := range specdsm.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, sep)
}
