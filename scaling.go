package specdsm

import (
	"fmt"

	"specdsm/internal/report"
)

// defaultScalingNodes is the machine-size axis of the node-count
// scaling study: the paper's 16 nodes, the inline reader-vector tier
// boundary (64), and two points deep into the two-level tier.
var defaultScalingNodes = []int{16, 64, 256, 1024}

// nodeScaling is one (application, node count) cell of the scaling
// study: a single SWI-DSM run (VMSP depth 1 active, as in §7.4) at
// that machine width.
type nodeScaling struct {
	App   string
	Nodes int
	Run   *RunResult
	// Failed marks a keep-going FAILED cell; Run is nil and the derived
	// metrics return zero values.
	Failed string
}

// Active returns the active predictor's measurements (SWI-DSM attaches
// it after any observers, so it is always the last entry).
func (s nodeScaling) Active() PredictorResult {
	if s.Run == nil {
		return PredictorResult{}
	}
	return s.Run.Predictors[len(s.Run.Predictors)-1]
}

// Requests is the run's coherence request count (reads + writes +
// upgrades) — the normalizer for the per-request traffic column.
func (s nodeScaling) Requests() uint64 {
	if s.Run == nil {
		return 0
	}
	return s.Run.Reads + s.Run.Writes + s.Run.Upgrades
}

// SpecReads is the total speculative forwarding activity: directory
// pushes at writes (FR) plus self-invalidation refetches (SWI).
func (s nodeScaling) SpecReads() uint64 {
	if s.Run == nil {
		return 0
	}
	return s.Run.SpecReadsFR + s.Run.SpecReadsSWI
}

// UnusedFraction is the fraction of speculative reads never referenced
// before invalidation — wasted traffic, the cost side of speculation.
func (s nodeScaling) UnusedFraction() float64 {
	if s.SpecReads() == 0 {
		return 0
	}
	return float64(s.Run.SpecReadUnused) / float64(s.SpecReads())
}

// MsgsPerRequest is interconnect messages sent per coherence request —
// the study's traffic metric. Invalidation fan-out grows with sharer
// count, so this is where machine width should show up first.
func (s nodeScaling) MsgsPerRequest() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Run.NetMsgs) / float64(s.Requests())
}

// nodeScalingStudyStream runs every application under SWI-DSM at each
// node count (nil selects defaultScalingNodes; every count must lie in
// [2, 4096]) and streams the rows, application-major (node counts
// inner), to emit. cfg.Nodes is superseded by the node-count axis;
// every other config knob (scale, seed, iterations, parallelism,
// checkpointing) applies as in the other studies, and rows merge in
// submission order so output is independent of cfg.Parallel.
func nodeScalingStudyStream(cfg StudyConfig, nodeCounts []int, emit func(i int, row nodeScaling) error) error {
	cfg = cfg.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = defaultScalingNodes
	}
	for _, n := range nodeCounts {
		if err := checkNodes(n); err != nil {
			return err
		}
	}
	k, apps := len(nodeCounts), cfg.Apps
	rs := cfg.spec(scalingStudy, MachineOptions{Mode: ModeSWI, DisableChecks: cfg.DisableChecks})
	rs.NodeCounts = nodeCounts
	return streamStudy(cfg, rs, func(i int, runs []*RunResult, failed string) error {
		return emit(i, nodeScaling{App: apps[i/k], Nodes: nodeCounts[i%k], Run: runs[0], Failed: failed})
	})
}

// renderNodeScaling prints the scaling study in the style of the
// paper's figure tables. The paper evaluates a 16-node machine only;
// this study is the beyond-paper question its §8 raises — does
// pattern-based prediction hold up as sharer sets outgrow a single
// directory vector word?
func renderNodeScaling(rows []nodeScaling) string {
	t := report.NewTable("Node scaling (beyond paper): SWI-DSM with active VMSP, depth 1",
		"app", "nodes", "accuracy", "coverage", "spec reads", "unused", "msgs/req", "cycles")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(fmt.Sprintf("%s @ %d nodes failed: %s", r.App, r.Nodes, r.Failed), r.App, fmt.Sprint(r.Nodes))
			continue
		}
		a := r.Active()
		t.AddRow(r.App, fmt.Sprint(r.Nodes),
			report.Pct(a.Accuracy()), report.Pct(a.Coverage()),
			fmt.Sprint(r.SpecReads()), report.Pct(r.UnusedFraction()),
			report.F1(r.MsgsPerRequest()), fmt.Sprint(r.Run.Cycles))
	}
	t.AddNote("accuracy/coverage: active predictor; unused: speculative reads invalidated before use")
	t.AddNote("nodes > 64 exercise the two-level reader vectors (inline word + group bitmap)")
	return t.String()
}
