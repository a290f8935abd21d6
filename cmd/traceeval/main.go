// Command traceeval evaluates predictors offline on a coherence-message
// trace captured with `specdsm -trace-out` (or specdsm.CaptureTrace).
//
//	specdsm -app em3d -trace-out em3d.trace
//	traceeval -in em3d.trace
//	traceeval -in em3d.trace -depths 1,2,4
//	traceeval -in em3d.trace -kinds MSP,VMSP -depths 2
//
// Offline evaluation reproduces what the same predictors would have
// measured online, without re-running the simulation. Kinds and depths
// are validated at parse time against the library's supported sets;
// invalid flags exit with status 2 and a message naming the valid
// choices.
package main

import (
	"fmt"
	"io"
	"os"

	"specdsm"
	"specdsm/internal/cli"
)

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		cli.Exit("traceeval", cli.Usage(err))
	}
	cli.Exit("traceeval", run(o, os.Stdout))
}

// run evaluates the configured predictors on the trace and writes the
// result table to out.
func run(o options, out io.Writer) error {
	f, err := os.Open(o.In)
	if err != nil {
		return err
	}
	defer f.Close()

	results, sum, err := specdsm.EvaluateTrace(f, o.Configs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "trace: %s, %d nodes, %d events over %d blocks\n\n",
		sum.Workload, sum.Nodes, sum.Events, sum.Blocks)
	fmt.Fprintf(out, "%-8s %5s %10s %10s %10s %9s %9s %7s %8s\n",
		"pred", "depth", "tracked", "predicted", "correct", "accuracy", "coverage", "pte", "bytes/bl")
	for _, r := range results {
		fmt.Fprintf(out, "%-8s %5d %10d %10d %10d %8.1f%% %8.1f%% %7.1f %8.1f\n",
			r.Kind, r.Depth, r.Tracked, r.Predicted, r.Correct,
			r.Accuracy*100, r.Coverage*100, r.EntriesPerBlock, r.BytesPerBlock)
	}
	return nil
}
