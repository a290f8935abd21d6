package specdsm

import (
	"io"

	"specdsm/internal/machine"
	"specdsm/internal/trace"
)

// TraceSummary describes a captured coherence-message trace.
type TraceSummary struct {
	Workload string
	Nodes    int
	Seed     int64
	Events   int
	Blocks   int
}

// CaptureTrace runs the workload and writes the coherence message streams
// observed at the directories to w as JSON, returning the run result and
// a trace summary. The trace is the very stream the run's observers are
// scored from, so offline evaluation (EvaluateTrace) reproduces online
// predictor measurements bit-for-bit.
func CaptureTrace(wl Workload, opts MachineOptions, out io.Writer) (*RunResult, TraceSummary, error) {
	tr := &trace.Trace{Workload: wl.Name, Nodes: wl.Nodes, Seed: wl.seed}
	res, err := simulate(func(cfg machine.Config, progs []machine.Program) (*machine.Result, error) {
		m := machine.New(cfg)
		m.Record(tr)
		return m.Run(progs)
	}, wl, opts)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	if err := trace.Write(out, tr); err != nil {
		return nil, TraceSummary{}, err
	}
	return res, summarize(tr), nil
}

func summarize(tr *trace.Trace) TraceSummary {
	return TraceSummary{
		Workload: tr.Workload,
		Nodes:    tr.Nodes,
		Seed:     tr.Seed,
		Events:   len(tr.Events),
		Blocks:   tr.Blocks(),
	}
}

// EvaluateTrace reads a trace written by CaptureTrace and evaluates the
// given predictor configurations on it offline, without re-simulation,
// through the same scoring path a run's observers take. A trace no
// machine could have recorded is an error.
func EvaluateTrace(in io.Reader, configs []PredictorConfig) ([]PredictorResult, TraceSummary, error) {
	tr, err := trace.Read(in)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	// The observers a Base run of the traced machine would attach.
	cfg, _, err := buildConfig(Workload{Nodes: tr.Nodes}, MachineOptions{Observers: configs})
	if err != nil {
		return nil, TraceSummary{}, err
	}
	return predictorResults(machine.Score(tr, cfg.Observers)), summarize(tr), nil
}
