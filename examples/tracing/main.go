// Trace workflow: capture the coherence message streams of a run once,
// then evaluate as many predictor configurations as you like offline —
// no re-simulation. Offline results are bit-identical to what the same
// predictors would have measured online.
//
//	go run ./examples/tracing
package main

import (
	"bytes"
	"fmt"
	"log"

	"specdsm"
)

func main() {
	w, err := specdsm.AppWorkload("unstructured", specdsm.WorkloadParams{Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	// Capture once. The trace is ordinary JSON; here it stays in memory,
	// but `specdsm -trace-out` writes the same format to a file for the
	// traceeval tool.
	var buf bytes.Buffer
	_, sum, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{Mode: specdsm.ModeBase}, &buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %s: %d directory messages over %d blocks (%d bytes of JSON)\n\n",
		sum.Workload, sum.Events, sum.Blocks, buf.Len())

	// Sweep predictor configurations offline — far cheaper than
	// re-simulating the machine per configuration.
	var configs []specdsm.PredictorConfig
	for _, kind := range specdsm.Kinds() {
		for _, d := range []int{1, 2, 4} {
			configs = append(configs, specdsm.PredictorConfig{Kind: kind, Depth: d})
		}
	}
	results, _, err := specdsm.EvaluateTrace(bytes.NewReader(buf.Bytes()), configs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %6s %9s %9s %6s\n", "pred", "depth", "accuracy", "coverage", "pte")
	for _, r := range results {
		fmt.Printf("%-8s %6d %8.1f%% %8.1f%% %6.1f\n",
			r.Kind, r.Depth, r.Accuracy()*100, r.Coverage()*100, r.EntriesPerBlock())
	}
	fmt.Println()
	fmt.Println("unstructured is the paper's showcase for VMSP: its wide, re-ordered")
	fmt.Println("read sharing wrecks Cosmos and MSP at depth 1, while the vector")
	fmt.Println("encoding shrugs it off — and the Cosmos pattern table explodes as")
	fmt.Println("depth grows (Table 4's 168-entries-per-block column).")
}
