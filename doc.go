// Package specdsm is a from-scratch reproduction of Lai & Falsafi's
// "Memory Sharing Predictor: The Key to a Speculative Coherent DSM"
// (ISCA 1999): a cycle-level CC-NUMA simulator with a full-map
// write-invalidate coherence protocol, the Cosmos/MSP/VMSP pattern-based
// coherence predictors, and the FR/SWI read-speculation mechanisms,
// together with synthetic versions of the paper's seven benchmark
// applications and the §5 analytic performance model.
//
// Typical use:
//
//	w, _ := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{})
//	base, _ := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeBase})
//	swi, _ := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
//	fmt.Printf("speedup %.2f\n", float64(base.Cycles)/float64(swi.Cycles))
//
// Experiments is the paper's evaluation as data: one ordered table of
// artifacts (Tables 1-5, Figures 6-9 and the beyond-paper studies),
// each naming the study it renders. An artifact comes from a Run of its
// study and a Render of the rows:
//
//	for _, e := range specdsm.Experiments() {
//		if e.Name == "fig7" {
//			rows, _ := e.Run(specdsm.StudyConfig{}, nil)
//			e.Render(os.Stdout, rows)
//		}
//	}
//
// cmd/paperrepro prints the whole table from the command line.
package specdsm
