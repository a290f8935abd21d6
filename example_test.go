package specdsm_test

import (
	"fmt"

	"specdsm"
)

// ExampleAnalyticSpeedup evaluates the paper's Equation 2 at its most
// cited point: perfect prediction on a fully communication-bound
// application turns the DSM into an SMP (speedup = rtl).
func ExampleAnalyticSpeedup() {
	s := specdsm.AnalyticSpeedup(specdsm.AnalyticParams{
		C: 1, F: 1, P: 1, RTL: 4, N: 2,
	})
	fmt.Printf("speedup = %.1f\n", s)
	// Output: speedup = 4.0
}

// ExampleAppNames lists the paper's seven benchmark applications.
func ExampleAppNames() {
	for _, name := range specdsm.AppNames() {
		fmt.Println(name)
	}
	// Output:
	// appbt
	// barnes
	// em3d
	// moldyn
	// ocean
	// tomcatv
	// unstructured
}

// ExampleRun compares Base-DSM with SWI-DSM on em3d, the paper's best
// case for Speculative Write-Invalidation.
func ExampleRun() {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{
		Nodes: 8, Iterations: 6, Scale: 0.25,
	})
	if err != nil {
		panic(err)
	}
	base, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeBase})
	if err != nil {
		panic(err)
	}
	swi, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
	if err != nil {
		panic(err)
	}
	fmt.Println("SWI-DSM faster than Base-DSM:", swi.Cycles < base.Cycles)
	fmt.Println("speculative hits occurred:", swi.SpecHits > 0)
	// Output:
	// SWI-DSM faster than Base-DSM: true
	// speculative hits occurred: true
}

// ExamplePredictorStudyStream runs the Figure 7 methodology on two
// applications with the study fanned out across a worker pool; each
// application's row is delivered, in order, as soon as it is ready.
// StudyConfig.Parallel only sizes the pool: results, their order, and
// every simulated cycle are identical for any worker count (0 means one
// worker per CPU, 1 is the exact sequential path), so study output can
// be compared across machines.
func ExamplePredictorStudyStream() {
	err := specdsm.PredictorStudyStream(specdsm.StudyConfig{
		Apps:     []string{"em3d", "moldyn"},
		Depths:   []int{1},
		Scale:    0.25,
		Parallel: 4,
	}, func(_ int, app specdsm.AppPrediction) error {
		msp := app.Get(specdsm.MSP, 1)
		vmsp := app.Get(specdsm.VMSP, 1)
		fmt.Printf("%s: VMSP at least as accurate as MSP: %v\n",
			app.App, vmsp.Accuracy() >= msp.Accuracy())
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// em3d: VMSP at least as accurate as MSP: true
	// moldyn: VMSP at least as accurate as MSP: true
}

// ExampleRun_observers measures all three predictors on one run's
// directory message stream — the methodology behind Figures 7-8.
func ExampleRun_observers() {
	w, err := specdsm.MicroWorkload(specdsm.PatternProducerConsumer, specdsm.WorkloadParams{
		Nodes: 4, Iterations: 10,
	})
	if err != nil {
		panic(err)
	}
	r, err := specdsm.Run(w, specdsm.MachineOptions{
		Observers: []specdsm.PredictorConfig{
			{Kind: specdsm.Cosmos, Depth: 1},
			{Kind: specdsm.MSP, Depth: 1},
			{Kind: specdsm.VMSP, Depth: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	cosmos, _ := r.Predictor(specdsm.Cosmos, 1)
	vmsp, _ := r.Predictor(specdsm.VMSP, 1)
	fmt.Println("Cosmos also tracks acknowledgements:", cosmos.Tracked > vmsp.Tracked)
	fmt.Println("VMSP at least as accurate:", vmsp.Accuracy() >= cosmos.Accuracy())
	// Output:
	// Cosmos also tracks acknowledgements: true
	// VMSP at least as accurate: true
}
