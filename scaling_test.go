package specdsm

import (
	"reflect"
	"strings"
	"testing"
)

// scalingCfg keeps the study's widest machine (N = 1024) fast enough
// for the test suite while still generating speculative activity: the
// predictors need at least three producer-consumer iterations to learn
// and act on the pattern.
var scalingCfg = StudyConfig{
	Apps:       []string{"em3d"},
	Iterations: 3,
	Scale:      0.25,
	Seed:       1,
}

// nodeScalingRows gathers the study's rows in delivery order.
func nodeScalingRows(cfg StudyConfig, nodes []int) ([]NodeScaling, error) {
	var rows []NodeScaling
	err := NodeScalingStudyStream(cfg, nodes, func(_ int, r NodeScaling) error {
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// TestNodeScalingStudy runs the study across both reader-vector tiers
// up to N = 1024 and checks that every cell carries live data: the
// run completed, speculation actually happened, and the traffic metric
// is populated.
func TestNodeScalingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("wide machines are slow in -short mode")
	}
	nodes := []int{16, 64, 256, 1024}
	rows, err := nodeScalingRows(scalingCfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(nodes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(nodes))
	}
	for i, r := range rows {
		if r.App != "em3d" || r.Nodes != nodes[i] {
			t.Fatalf("row %d = (%s, %d), want (em3d, %d)", i, r.App, r.Nodes, nodes[i])
		}
		if r.Run.Cycles == 0 || r.Requests() == 0 {
			t.Errorf("N=%d: empty run: %+v", r.Nodes, r.Run)
		}
		if r.SpecReads() == 0 {
			t.Errorf("N=%d: no speculative activity — study parameters too small", r.Nodes)
		}
		if r.Run.NetMsgs == 0 || r.MsgsPerRequest() <= 0 {
			t.Errorf("N=%d: traffic metric empty (NetMsgs=%d)", r.Nodes, r.Run.NetMsgs)
		}
		if a := r.Active(); a.Kind != VMSP || a.Predicted == 0 {
			t.Errorf("N=%d: active predictor %+v, want a live VMSP", r.Nodes, a)
		}
	}
	table := RenderNodeScaling(rows)
	for _, want := range []string{"Node scaling", "1024", "msgs/req"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q:\n%s", want, table)
		}
	}
}

// TestNodeScalingParallelInvariance pins the study's determinism
// contract: the row stream is identical at -parallel 1 and -parallel 8,
// including order, so paperrepro -only scaling output never depends on
// the worker count.
func TestNodeScalingParallelInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("wide machines are slow in -short mode")
	}
	nodes := []int{16, 256}
	run := func(parallel int) []NodeScaling {
		cfg := scalingCfg
		cfg.Parallel = parallel
		rows, err := nodeScalingRows(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("study diverged across parallelism:\nseq: %+v\npar: %+v", seq, par)
	}
}
