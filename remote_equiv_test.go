package specdsm

import (
	"context"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"specdsm/internal/remote"
)

// startWorkers spins up n in-process sweepd-equivalent workers (a
// remote.Server wired to NewRemoteRunner, exactly what
// cmd/sweepd serves) and returns their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	var hosts []string
	for range n {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		srv := &remote.Server{NewRunner: NewRemoteRunner}
		go srv.Serve(ctx, lis)
		hosts = append(hosts, lis.Addr().String())
	}
	return hosts
}

func equivCfg() StudyConfig {
	return StudyConfig{
		Apps:     []string{"em3d", "moldyn"},
		Scale:    0.1,
		Depths:   []int{1},
		Parallel: 1,
	}
}

// rows erases a study's row type so one table can drive every study.
func rows[T any](r []T, err error) (any, error) { return r, err }

// TestRemoteStudiesMatchLocal pins the shard contract for every grid
// study: the spec alone rebuilds each study's jobs on a worker, so the
// rows a 2-shard fleet delivers deep-equal a local Parallel: 1 run's.
func TestRemoteStudiesMatchLocal(t *testing.T) {
	hosts := startWorkers(t, 2)
	wp := WorkloadParams{Nodes: 8, Scale: 0.1, Seed: 3}
	studies := []struct {
		name string
		run  func(StudyConfig) (any, error)
	}{
		{"predictor", func(cfg StudyConfig) (any, error) {
			return rows(collectRows(cfg, PredictorStudyStream))
		}},
		{"speculation", func(cfg StudyConfig) (any, error) {
			return rows(collectRows(cfg, speculationStudyStream))
		}},
		{"seeds", func(cfg StudyConfig) (any, error) {
			return rows(SpeculationStudySeeds(cfg, []int64{2, 5}))
		}},
		{"scaling", func(cfg StudyConfig) (any, error) {
			return rows(collectRows(cfg, func(cfg StudyConfig, emit func(int, nodeScaling) error) error {
				return nodeScalingStudyStream(cfg, []int{4, 8}, emit)
			}))
		}},
		{"rtl", func(cfg StudyConfig) (any, error) {
			return rows(rtlPoints(cfg, "em3d", wp, []int{20, 200}))
		}},
		{"sweep", func(cfg StudyConfig) (any, error) {
			return rows(collectRows(cfg, func(cfg StudyConfig, emit func(int, *RunResult) error) error {
				return RunSweepStream(cfg, MachineOptions{Mode: ModeFR}, emit, nil)
			}))
		}},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			local, err := st.run(equivCfg())
			if err != nil {
				t.Fatal(err)
			}
			rcfg := equivCfg()
			rcfg.Remote = hosts
			got, err := st.run(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, local) {
				t.Fatalf("remote rows differ from local:\nremote: %+v\nlocal:  %+v", got, local)
			}
		})
	}
}

// TestRemoteSweepKeepGoingMatchesLocal runs the CLI sweep study under
// injected job panics in keep-going mode, remotely and locally: the
// same jobs must fail with the same error text at the same indices,
// and the surviving rows must be identical — job-level failures are
// results, decided by the deterministic injector schedule, not by
// which executor happened to run the job.
func TestRemoteSweepKeepGoingMatchesLocal(t *testing.T) {
	type event struct {
		I    int
		Row  *RunResult
		Fail string
	}
	run := func(cfg StudyConfig) []event {
		var events []event
		err := RunSweepStream(cfg, MachineOptions{Mode: ModeSWI},
			func(i int, r *RunResult) error {
				events = append(events, event{I: i, Row: r})
				return nil
			},
			func(i int, ferr error) error {
				events = append(events, event{I: i, Fail: ferr.Error()})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	base := equivCfg()
	base.Apps = []string{"em3d", "moldyn", "appbt"}
	base.KeepGoing = true
	base.FaultSpec = "seed=5,panic=0.4"

	local := run(base)
	var failures int
	for _, e := range local {
		if e.Fail != "" {
			failures++
		}
	}
	if failures == 0 || failures == len(local) {
		t.Fatalf("want a mix of failures and rows to compare, got %d/%d failures", failures, len(local))
	}

	rcfg := base
	rcfg.Remote = startWorkers(t, 2)
	got := run(rcfg)
	if !reflect.DeepEqual(got, local) {
		t.Fatalf("remote event stream differs from local:\nremote: %+v\nlocal:  %+v", got, local)
	}
}

// TestRemoteCheckpointResumeMatchesLocal interrupts a remote sweep by
// aborting delivery mid-study, then resumes it remotely and compares
// the stitched row sequence against an uninterrupted local run — the
// dispatcher-restart leg of the determinism contract.
func TestRemoteCheckpointResumeMatchesLocal(t *testing.T) {
	run := func(cfg StudyConfig, stopAfter int) ([]nodeScaling, error) {
		var rows []nodeScaling
		err := nodeScalingStudyStream(cfg, []int{4, 8}, func(_ int, row nodeScaling) error {
			rows = append(rows, row)
			if stopAfter > 0 && len(rows) == stopAfter {
				return errAbort
			}
			return nil
		})
		return rows, err
	}
	local, err := run(equivCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}

	hosts := startWorkers(t, 3)
	rcfg := equivCfg()
	rcfg.Remote = hosts
	rcfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	rcfg.CheckpointEvery = 1
	partial, err := run(rcfg, 2)
	if err != errAbort {
		t.Fatalf("interrupted run returned %v, want the abort error", err)
	}
	rcfg.Resume = true
	resumed, err := run(rcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = partial
	if !reflect.DeepEqual(resumed, local) {
		t.Fatalf("resumed remote rows differ from local:\nremote: %+v\nlocal:  %+v", resumed, local)
	}
}

var errAbort = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "test: abort delivery" }
