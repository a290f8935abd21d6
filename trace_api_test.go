package specdsm_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"specdsm"
)

// Offline trace evaluation must reproduce online observer measurements
// exactly — this validates the whole capture path end to end. All nine
// paper observers run, in Base and SWI mode (the active predictor's
// speculation shapes the stream both sides see) and on a machine wider
// than one inline reader word.
func TestTraceCaptureAndOfflineEvaluation(t *testing.T) {
	var configs []specdsm.PredictorConfig
	for _, kind := range specdsm.Kinds() {
		for _, d := range []int{1, 2, 4} {
			configs = append(configs, specdsm.PredictorConfig{Kind: kind, Depth: d})
		}
	}
	for _, tc := range []struct {
		name string
		p    specdsm.WorkloadParams
		mode specdsm.Mode
	}{
		{"base", specdsm.WorkloadParams{Nodes: 8, Iterations: 4, Scale: 0.25}, specdsm.ModeBase},
		{"swi", specdsm.WorkloadParams{Nodes: 8, Iterations: 4, Scale: 0.25}, specdsm.ModeSWI},
		{"wide", specdsm.WorkloadParams{Nodes: 72, Iterations: 2, Scale: 0.1}, specdsm.ModeBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := specdsm.AppWorkload("em3d", tc.p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			online, sum, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{
				Mode:      tc.mode,
				Observers: configs,
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Events == 0 || sum.Blocks == 0 || sum.Workload != "em3d" {
				t.Fatalf("summary = %+v", sum)
			}
			wantResults := len(configs)
			if tc.mode != specdsm.ModeBase {
				wantResults++ // the active predictor comes last
			}
			if len(online.Predictors) != wantResults {
				t.Fatalf("%d online results, want %d", len(online.Predictors), wantResults)
			}

			offline, sum2, err := specdsm.EvaluateTrace(&buf, configs)
			if err != nil {
				t.Fatal(err)
			}
			if sum2.Events != sum.Events {
				t.Fatalf("event counts differ: %d vs %d", sum2.Events, sum.Events)
			}
			if len(offline) != len(configs) {
				t.Fatalf("%d offline results", len(offline))
			}
			for i, cfg := range configs {
				on, ok := online.Predictor(cfg.Kind, cfg.Depth)
				if !ok {
					t.Fatalf("missing online result for %+v", cfg)
				}
				off := offline[i]
				if on.Tracked == 0 {
					t.Fatalf("%v d=%d tracked nothing", cfg.Kind, cfg.Depth)
				}
				if on.Tracked != off.Tracked || on.Predicted != off.Predicted || on.Correct != off.Correct {
					t.Fatalf("%v d=%d: online (%d,%d,%d) != offline (%d,%d,%d)",
						cfg.Kind, cfg.Depth,
						on.Tracked, on.Predicted, on.Correct,
						off.Tracked, off.Predicted, off.Correct)
				}
				if on.Entries != off.Entries || on.Blocks != off.Blocks {
					t.Fatalf("%v d=%d: census diverges: online %d entries/%d blocks, offline %d/%d",
						cfg.Kind, cfg.Depth, on.Entries, on.Blocks, off.Entries, off.Blocks)
				}
			}
		})
	}
}

// A trace carries the seed its workload was generated from, with the
// generators' default for 0.
func TestCaptureTraceStampsSeed(t *testing.T) {
	for _, tc := range []struct {
		seed, want int64
	}{{5, 5}, {0, 1}} {
		w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 4, Iterations: 1, Scale: 0.25, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, sum, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Seed != tc.want {
			t.Errorf("seed %d: TraceSummary.Seed = %d, want %d", tc.seed, sum.Seed, tc.want)
		}
		if field := fmt.Sprintf(`"seed":%d`, tc.want); !strings.Contains(buf.String(), field) {
			t.Errorf("seed %d: trace file lacks %s", tc.seed, field)
		}
	}
	w, err := specdsm.MicroWorkload(specdsm.PatternMigratory, specdsm.WorkloadParams{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, sum, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{}, io.Discard); err != nil || sum.Seed != 7 {
		t.Errorf("micro workload: TraceSummary.Seed = %d (err %v), want 7", sum.Seed, err)
	}
}

func TestEvaluateTraceErrors(t *testing.T) {
	if _, _, err := specdsm.EvaluateTrace(strings.NewReader("garbage"), nil); err == nil {
		t.Fatal("expected decode error")
	}
	w, _ := specdsm.AppWorkload("ocean", specdsm.WorkloadParams{Nodes: 4, Iterations: 1, Scale: 0.25})
	var buf bytes.Buffer
	if _, _, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := specdsm.EvaluateTrace(&buf,
		[]specdsm.PredictorConfig{{Kind: "Oracle", Depth: 1}}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestCaptureTraceEmptyWorkload(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := specdsm.CaptureTrace(specdsm.Workload{}, specdsm.MachineOptions{}, &buf); err == nil {
		t.Fatal("expected empty-workload error")
	}
}

// Two identical observer configurations are two predictors, each seeing
// the stream once: each reports what one such observer alone reports,
// online and in offline evaluation of the same configurations.
func TestDuplicateObserversMeasureOnce(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 8, Iterations: 4, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	vmsp := specdsm.PredictorConfig{Kind: specdsm.VMSP, Depth: 1}
	var buf bytes.Buffer
	single, _, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{Observers: []specdsm.PredictorConfig{vmsp}}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	configs := []specdsm.PredictorConfig{vmsp, vmsp}
	double, err := specdsm.Run(w, specdsm.MachineOptions{Observers: configs})
	if err != nil {
		t.Fatal(err)
	}
	offline, _, err := specdsm.EvaluateTrace(&buf, configs)
	if err != nil {
		t.Fatal(err)
	}
	want := single.Predictors[0]
	if want.Predicted == 0 || want.Blocks == 0 {
		t.Fatalf("single observer measured nothing: %+v", want)
	}
	if len(double.Predictors) != 2 {
		t.Fatalf("%d predictor results for two observers", len(double.Predictors))
	}
	for i, got := range double.Predictors {
		if got != want || offline[i] != want {
			t.Errorf("observer %d: online %+v, offline %+v, want %+v", i, got, offline[i], want)
		}
	}
}
