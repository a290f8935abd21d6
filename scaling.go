package specdsm

import (
	"context"
	"fmt"

	"specdsm/internal/machine"
	"specdsm/internal/report"
)

// DefaultScalingNodes is the machine-size axis of the node-count
// scaling study: the paper's 16 nodes, the inline reader-vector tier
// boundary (64), and two points deep into the two-level tier.
var DefaultScalingNodes = []int{16, 64, 256, 1024}

// NodeScaling is one (application, node count) cell of the scaling
// study: a single SWI-DSM run (VMSP depth 1 active, as in §7.4) at
// that machine width.
type NodeScaling struct {
	App   string
	Nodes int
	Run   *RunResult
	// Failed marks a keep-going FAILED cell; Run is nil and the derived
	// metrics return zero values.
	Failed string
}

// Active returns the active predictor's measurements (SWI-DSM attaches
// it after any observers, so it is always the last entry).
func (s NodeScaling) Active() PredictorResult {
	if s.Run == nil {
		return PredictorResult{}
	}
	return s.Run.Predictors[len(s.Run.Predictors)-1]
}

// Requests is the run's coherence request count (reads + writes +
// upgrades) — the normalizer for the per-request traffic column.
func (s NodeScaling) Requests() uint64 {
	if s.Run == nil {
		return 0
	}
	return s.Run.Reads + s.Run.Writes + s.Run.Upgrades
}

// SpecReads is the total speculative forwarding activity: directory
// pushes at writes (FR) plus self-invalidation refetches (SWI).
func (s NodeScaling) SpecReads() uint64 {
	if s.Run == nil {
		return 0
	}
	return s.Run.SpecReadsFR + s.Run.SpecReadsSWI
}

// UnusedFraction is the fraction of speculative reads never referenced
// before invalidation — wasted traffic, the cost side of speculation.
func (s NodeScaling) UnusedFraction() float64 {
	if s.SpecReads() == 0 {
		return 0
	}
	return float64(s.Run.SpecReadUnused) / float64(s.SpecReads())
}

// MsgsPerRequest is interconnect messages sent per coherence request —
// the study's traffic metric. Invalidation fan-out grows with sharer
// count, so this is where machine width should show up first.
func (s NodeScaling) MsgsPerRequest() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Run.NetMsgs) / float64(s.Requests())
}

// NodeScalingStudyStream runs every application under SWI-DSM at each
// node count (nil selects DefaultScalingNodes) and streams the rows,
// application-major (node counts inner), to emit. cfg.Nodes is
// superseded by the node-count axis; every other config knob (scale,
// seed, iterations, parallelism, checkpointing) applies as in the
// other studies, and rows merge in submission order so output is
// independent of cfg.Parallel.
func NodeScalingStudyStream(cfg StudyConfig, nodeCounts []int, emit func(i int, row NodeScaling) error) error {
	cfg = cfg.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = DefaultScalingNodes
	}
	k := len(nodeCounts)
	n := len(cfg.Apps) * k
	fail := failRow(cfg, emit, func(j int, errText string) NodeScaling {
		return NodeScaling{App: cfg.Apps[j/k], Nodes: nodeCounts[j%k], Failed: errText}
	})
	rs := cfg.spec("scaling")
	rs.NodeCounts = nodeCounts
	return streamStudy(cfg, rs, n, scalingJob(cfg, nodeCounts),
		func(j int, r *RunResult) error {
			return emit(j, NodeScaling{App: cfg.Apps[j/k], Nodes: nodeCounts[j%k], Run: r})
		},
		fail)
}

// scalingJob builds the node-scaling study's job function: application
// j/k at node count j%k of the axis, under SWI-DSM. Shared between the
// in-process pool and remote workers.
func scalingJob(cfg StudyConfig, nodeCounts []int) func(context.Context, *machine.Arena, int) (*RunResult, error) {
	k := len(nodeCounts)
	return func(_ context.Context, arena *machine.Arena, j int) (*RunResult, error) {
		wp := cfg.workloadParams()
		wp.Nodes = nodeCounts[j%k]
		w, err := AppWorkload(cfg.Apps[j/k], wp)
		if err != nil {
			return nil, err
		}
		return runInArena(arena, w, MachineOptions{Mode: ModeSWI, DisableChecks: cfg.DisableChecks})
	}
}

// NodeScalingStudy is NodeScalingStudyStream collected into a slice.
func NodeScalingStudy(cfg StudyConfig, nodeCounts []int) ([]NodeScaling, error) {
	var out []NodeScaling
	if err := NodeScalingStudyStream(cfg, nodeCounts, func(_ int, row NodeScaling) error {
		out = append(out, row)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderNodeScaling prints the scaling study in the style of the
// paper's figure tables. The paper evaluates a 16-node machine only;
// this study is the beyond-paper question its §8 raises — does
// pattern-based prediction hold up as sharer sets outgrow a single
// directory vector word?
func RenderNodeScaling(rows []NodeScaling) string {
	t := report.NewTable("Node scaling (beyond paper): SWI-DSM with active VMSP, depth 1",
		"app", "nodes", "accuracy", "coverage", "spec reads", "unused", "msgs/req", "cycles")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddRow(r.App, fmt.Sprint(r.Nodes),
				"FAILED", "FAILED", "FAILED", "FAILED", "FAILED", "FAILED")
			t.AddNote("%s @ %d nodes failed: %s", r.App, r.Nodes, r.Failed)
			continue
		}
		a := r.Active()
		t.AddRow(r.App, fmt.Sprint(r.Nodes),
			report.Pct(a.Accuracy), report.Pct(a.Coverage),
			fmt.Sprint(r.SpecReads()), report.Pct(r.UnusedFraction()),
			report.F1(r.MsgsPerRequest()), fmt.Sprint(r.Run.Cycles))
	}
	t.AddNote("accuracy/coverage: active predictor; unused: speculative reads invalidated before use")
	t.AddNote("nodes > 64 exercise the two-level reader vectors (inline word + group bitmap)")
	return t.String()
}
