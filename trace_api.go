package specdsm

import (
	"fmt"
	"io"

	"specdsm/internal/core"
	"specdsm/internal/machine"
	"specdsm/internal/mem"
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
// a trace summary. The captured stream is exactly what a passive
// predictor attached to the run would have observed, so offline
// evaluation (EvaluateTrace) reproduces online predictor measurements
// bit-for-bit.
func CaptureTrace(wl Workload, opts MachineOptions, out io.Writer) (*RunResult, TraceSummary, error) {
	if len(wl.programs) == 0 {
		return nil, TraceSummary{}, fmt.Errorf("specdsm: empty workload")
	}
	cfg, mode, err := buildConfig(wl, opts)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	m := machine.New(cfg)
	rec := trace.NewRecorder(m.Kernel(), wl.Name, wl.Nodes, wl.seed)
	m.AttachObserver(rec)
	res, err := m.Run(wl.programs)
	if err != nil {
		return nil, TraceSummary{}, fmt.Errorf("specdsm: %s/%s: %w", wl.Name, mode, err)
	}
	tr := rec.Trace()
	if err := trace.Write(out, tr); err != nil {
		return nil, TraceSummary{}, err
	}
	return convert(wl, mode, res), summarize(tr), nil
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
// given predictor configurations on it offline, without re-simulation.
func EvaluateTrace(in io.Reader, configs []PredictorConfig) ([]PredictorResult, TraceSummary, error) {
	tr, err := trace.Read(in)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	return evaluateTrace(tr, configs)
}

func evaluateTrace(tr *trace.Trace, configs []PredictorConfig) ([]PredictorResult, TraceSummary, error) {
	nodes := max(tr.Nodes, mem.InlineNodes)
	var specs []machine.PredictorSpec
	var preds []*core.TwoLevel
	var observers []core.Predictor
	for _, c := range configs {
		spec, err := c.spec()
		if err != nil {
			return nil, TraceSummary{}, err
		}
		p := core.NewSized(spec.Kind, spec.Depth, nodes)
		specs = append(specs, spec)
		preds, observers = append(preds, p), append(observers, p)
	}
	trace.Replay(tr, observers...)
	var out []PredictorResult
	for i, p := range preds {
		out = append(out, predictorResult(machine.PredictorResult{Spec: specs[i], Stats: p.Stats(), Census: p.Census()}))
	}
	return out, summarize(tr), nil
}
