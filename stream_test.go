package specdsm_test

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdsm"
	"specdsm/internal/sweep"
)

// streamCfg is a deliberately small study shape shared by the streaming
// tests: big enough to exercise the parallel merge, small enough to run
// in every `go test`.
func streamCfg() specdsm.StudyConfig {
	return specdsm.StudyConfig{
		Apps:          []string{"em3d", "tomcatv"},
		Nodes:         8,
		Scale:         0.25,
		Iterations:    4,
		Parallel:      4,
		DisableChecks: true,
	}
}

// collect gathers a streaming study's rows in delivery order, sized
// for one row per configured application.
func collect[T any](cfg specdsm.StudyConfig, stream func(specdsm.StudyConfig, func(int, T) error) error) ([]T, error) {
	rows := make([]T, 0, len(cfg.Apps))
	err := stream(cfg, func(_ int, row T) error {
		rows = append(rows, row)
		return nil
	})
	return rows, err
}

// rtlPoints gathers an rtl sweep's points in flight order.
func rtlPoints(cfg specdsm.StudyConfig, app string, wp specdsm.WorkloadParams, flights []int) ([]specdsm.RTLPoint, error) {
	return collect(cfg, func(cfg specdsm.StudyConfig, emit func(int, specdsm.RTLPoint) error) error {
		return specdsm.RTLSweepStream(cfg, app, wp, flights, emit)
	})
}

// TestSpeculationStudyStreamMatchesCollect checks the stream's row
// indices arrive in order on a parallel pool and that the rows equal a
// collected sequential run.
func TestSpeculationStudyStreamMatchesCollect(t *testing.T) {
	cfg := streamCfg()
	seq := cfg
	seq.Parallel = 1
	want, err := collect(seq, specdsm.SpeculationStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	var got []specdsm.AppSpeculation
	next := 0
	err = specdsm.SpeculationStudyStream(cfg, func(i int, row specdsm.AppSpeculation) error {
		if i != next {
			t.Fatalf("row %d emitted, want %d", i, next)
		}
		next++
		got = append(got, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed rows differ from collected study")
	}
}

func TestStreamEmitErrorStopsStudy(t *testing.T) {
	sentinel := errors.New("stop here")
	rows := 0
	err := specdsm.PredictorStudyStream(streamCfg(), func(i int, _ specdsm.AppPrediction) error {
		rows++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if rows != 1 {
		t.Fatalf("emit ran %d times after erroring", rows)
	}
}

// TestStudyCheckpointResume drives the whole user-visible contract on a
// real study: a completed checkpoint replays with zero re-simulation, a
// fresh (non-resume) run refuses to clobber it, and a config change is
// rejected instead of splicing incompatible rows.
func TestStudyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study is slow for -short")
	}
	cfg := streamCfg()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	cfg.CheckpointEvery = 2
	seeds := []int64{1, 2, 3}

	fresh, err := specdsm.SpeculationStudySeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Same invocation again without -resume: saved work must not be
	// silently overwritten.
	if _, err := specdsm.SpeculationStudySeeds(cfg, seeds); !errors.Is(err, sweep.ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}

	// Resume of a completed sweep replays rows without running any job.
	var ran atomic.Int64
	cfg.Resume = true
	cfg.OnJobDone = func(int, time.Duration) { ran.Add(1) }
	resumed, err := specdsm.SpeculationStudySeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("resume of completed sweep ran %d jobs", n)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed aggregate differs:\n got %+v\nwant %+v", resumed, fresh)
	}

	// A different study shape must not consume the old file.
	cfg.Scale = 0.5
	if _, err := specdsm.SpeculationStudySeeds(cfg, seeds); !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := specdsm.SpeculationStudySeeds(streamCfg(), nil); err == nil {
		t.Fatal("expected no-seeds error")
	}
}

// TestRTLSweepStreamInterruptResume interrupts a checkpointed sweep from
// the emit side (the row is already persisted when emit fails), then
// resumes and checks the full emitted sequence is byte-identical to an
// uninterrupted single-worker run while re-simulating only the missing
// suffix.
func TestRTLSweepStreamInterruptResume(t *testing.T) {
	cfg := streamCfg()
	app, wp := "em3d", specdsm.WorkloadParams{Nodes: 8, Scale: 0.25, Iterations: 4, Seed: 1}
	flights := []int{20, 80, 200, 320}

	var fresh []specdsm.RTLPoint
	seq := specdsm.StudyConfig{Parallel: 1}
	if err := specdsm.RTLSweepStream(seq, app, wp, flights, func(_ int, p specdsm.RTLPoint) error {
		fresh = append(fresh, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	cfg.CheckpointEvery = 1
	sentinel := errors.New("interrupted")
	err := specdsm.RTLSweepStream(cfg, app, wp, flights, func(i int, _ specdsm.RTLPoint) error {
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want interruption sentinel", err)
	}

	var ran atomic.Int64
	cfg.Resume = true
	cfg.OnJobDone = func(int, time.Duration) { ran.Add(1) }
	var resumed []specdsm.RTLPoint
	if err := specdsm.RTLSweepStream(cfg, app, wp, flights, func(_ int, p specdsm.RTLPoint) error {
		resumed = append(resumed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed sweep differs:\n got %+v\nwant %+v", resumed, fresh)
	}
	total := int64(2 * len(flights))
	if n := ran.Load(); n == 0 || n >= total {
		t.Fatalf("resume ran %d of %d jobs, want a proper suffix", n, total)
	}
}

// TestResumeProgressCountsRunJobs pins progress reporting after a
// resume, locally and over a shard: OnJobDone sees absolute study
// indices, and the ETA's total counts only the jobs that actually run
// (replayed rows never report progress).
func TestResumeProgressCountsRunJobs(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := specdsm.StudyConfig{
				Apps:            []string{"em3d", "moldyn", "tomcatv", "ocean"},
				Scale:           0.1,
				Depths:          []int{1},
				Parallel:        1,
				CheckpointPath:  filepath.Join(t.TempDir(), "ck"),
				CheckpointEvery: 1,
			}
			if shards > 0 {
				cfg.Remote = startWorkers(t, shards)
			}
			// Interrupt after two rows: both are in the checkpoint.
			stop := errors.New("interrupted")
			if err := specdsm.PredictorStudyStream(cfg, func(i int, _ specdsm.AppPrediction) error {
				if i == 1 {
					return stop
				}
				return nil
			}); !errors.Is(err, stop) {
				t.Fatalf("err = %v, want the interruption", err)
			}

			var (
				mu      sync.Mutex
				indices []int
				log     bytes.Buffer
			)
			cfg.Resume = true
			cfg.OnJobDone = func(i int, _ time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				indices = append(indices, i)
			}
			cfg.Progress = slog.New(slog.NewTextHandler(&lockedBuffer{b: &log, mu: &mu}, nil))
			if err := specdsm.PredictorStudyStream(cfg, func(int, specdsm.AppPrediction) error { return nil }); err != nil {
				t.Fatal(err)
			}
			sort.Ints(indices)
			if fmt.Sprint(indices) != "[2 3]" {
				t.Fatalf("OnJobDone indices = %v, want [2 3]", indices)
			}
			if out := log.String(); !strings.Contains(out, "completed=2 total=2") || strings.Contains(out, "total=4") {
				t.Fatalf("progress not sized by the jobs that ran:\n%s", out)
			}
		})
	}
}

// lockedBuffer serializes concurrent log writes.
type lockedBuffer struct {
	b  *bytes.Buffer
	mu *sync.Mutex
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}
