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
// The experiment drivers (PredictorStudyStream, SpeculationStudyStream,
// and the seeds, node-scaling and rtl sweeps) and table builders
// (Figure7 ... Table5) regenerate every figure and table of the paper's
// evaluation; cmd/paperrepro wires them to the command line.
package specdsm
