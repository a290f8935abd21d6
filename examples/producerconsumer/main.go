// Producer/consumer walkthrough: reproduce the paper's running example
// (Figures 2-4) on a live machine and watch the three predictors learn the
// pattern — including the pattern-table cost difference between the
// general message predictor (Cosmos), MSP, and VMSP.
//
//	go run ./examples/producerconsumer
package main

import (
	"fmt"
	"log"

	"specdsm"
)

func main() {
	// One producer (node 0), two consumers per block — the paper's
	// <Upgrade,P3> -> <Read,P1> <Read,P2> example, scaled to a machine.
	w, err := specdsm.MicroWorkload(specdsm.PatternProducerConsumer, specdsm.WorkloadParams{
		Nodes:      4,
		Iterations: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	var observers []specdsm.PredictorConfig
	for _, k := range specdsm.Kinds() {
		observers = append(observers, specdsm.PredictorConfig{Kind: k, Depth: 1})
	}
	r, err := specdsm.Run(w, specdsm.MachineOptions{
		Mode:      specdsm.ModeBase,
		Observers: observers,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("producer/consumer sharing, 10 iterations, history depth 1")
	fmt.Println()
	fmt.Printf("%-8s %10s %10s %10s %8s %6s\n",
		"pred", "tracked", "predicted", "correct", "accuracy", "pte")
	for _, p := range r.Predictors {
		fmt.Printf("%-8s %10d %10d %10d %7.1f%% %6.1f\n",
			p.Kind, p.Tracked, p.Predicted, p.Correct, p.Accuracy()*100, p.EntriesPerBlock())
	}

	fmt.Println()
	fmt.Println("What to look for (paper §3):")
	fmt.Println("  - Cosmos tracks more messages: it also observes invalidation acks.")
	fmt.Println("  - MSP ignores acks, needing fewer pattern-table entries (pte).")
	fmt.Println("  - VMSP folds the consumers into one reader vector: fewest entries,")
	fmt.Println("    and immune to the consumers' arrival order.")

	// Now run the same workload speculatively and measure the win.
	base, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeBase})
	if err != nil {
		log.Fatal(err)
	}
	swi, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBase-DSM: %d cycles; SWI-DSM: %d cycles (%.1f%% faster; %d speculative hits)\n",
		base.Cycles, swi.Cycles,
		(1-float64(swi.Cycles)/float64(base.Cycles))*100, swi.SpecHits)
}
