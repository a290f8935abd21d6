// Analytic model explorer: evaluate the paper's §5 performance model
// (Equations 1-2) and render the four Figure 6 panels, then check one of
// the model's headline claims against the simulator.
//
//	go run ./examples/analytic
package main

import (
	"fmt"
	"log"
	"os"

	"specdsm"
)

func main() {
	// Reproduce Figure 6 as ASCII charts, through the experiment table
	// that paperrepro prints from. The analytic model needs no study run.
	for _, e := range specdsm.Experiments() {
		if e.Name == "fig6" {
			if err := e.Render(os.Stdout, specdsm.Rows{}); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Spot-check the model: a fully communication-bound application with
	// perfect prediction approaches rtl-fold communication speedup.
	p := specdsm.AnalyticParams{C: 1, F: 1, P: 1, RTL: 4, N: 2}
	fmt.Printf("perfect speculation, c=1: speedup = %.2f (equals rtl — \"the DSM behaves like an SMP\")\n\n",
		specdsm.AnalyticSpeedup(p))

	// Compare the model's prediction with a measured run: estimate em3d's
	// communication ratio and speculation parameters from the simulator,
	// then see what Equation 2 predicts for SWI-DSM.
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	base, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeBase})
	if err != nil {
		log.Fatal(err)
	}
	swi, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
	if err != nil {
		log.Fatal(err)
	}

	c := base.RequestShare()
	totalReads := float64(base.Reads)
	f := float64(swi.SpecReadsFR+swi.SpecReadsSWI) / totalReads
	miss := float64(swi.SpecReadUnused)
	pAcc := 1.0
	if sent := float64(swi.SpecReadsFR + swi.SpecReadsSWI); sent > 0 {
		pAcc = 1 - miss/sent
	}
	model := specdsm.AnalyticParams{C: c, F: f, P: pAcc, RTL: 4, N: 2}
	predicted := specdsm.AnalyticSpeedup(model)
	measured := float64(base.Cycles) / float64(swi.Cycles)

	fmt.Printf("em3d: c=%.2f f=%.2f p=%.2f\n", c, f, pAcc)
	fmt.Printf("  model-predicted SWI-DSM speedup: %.2fx\n", predicted)
	fmt.Printf("  simulator-measured speedup:      %.2fx\n", measured)
	fmt.Println("\nThe simple model ignores queueing and misspeculation side effects,")
	fmt.Println("but lands in the same range as the detailed simulation — the paper's")
	fmt.Println("point that accuracy (p) and opportunity (c, f) govern the win.")
}
