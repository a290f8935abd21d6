package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specdsm"
)

// workers is the worker count of every workload: the pool's Parallel
// for the in-process studies, the number of sweepd shards for fleet.
// It matches the 2-core machine the benchmark was sized on.
const workers = 2

// minJobs is the least number of jobs a run measures, so that the
// per-job p90 always has at least ten samples beyond it.
const minJobs = p90Samples

// studyKind selects the library entry point a workload drives.
type studyKind int

const (
	// predictorStudy runs specdsm.PredictorStudyStream once per seed.
	predictorStudy studyKind = iota
	// seedsStudy runs specdsm.SpeculationStudySeeds over all seeds.
	seedsStudy
)

// workload is one benchmark workload: a closed loop of rounds, each a
// fixed job set over seedsPerRound consecutive generation seeds. Round
// r of a run with seed s covers seeds s+r·seedsPerRound onwards, so
// every round generates its programs afresh (the generation cache is
// never warm for a round's inputs) and every simulated cache starts
// empty, as in a new paperrepro invocation.
type workload struct {
	name          string
	kind          studyKind
	seedsPerRound int
	nodes         int
	iterations    int // 0: per-application default
	scale         float64
	apps          []string // nil: all seven applications
	remote        bool     // jobs go to two sweepd shards, with a checkpoint
}

var workloads = map[string]workload{
	// Rounds are short, so that calibration bursts (calib.go) sample
	// the host all through a run.
	// 2 seeds × 7 apps = 14 jobs per round.
	"predict": {name: "predict", kind: predictorStudy, seedsPerRound: 2, nodes: 16, scale: 1.0},
	// 1 seed × 7 apps × 3 modes = 21 jobs per round.
	"speculate": {name: "speculate", kind: seedsStudy, seedsPerRound: 1, nodes: 16, scale: 1.0},
	// 32 seeds × 7 apps × 3 modes = 672 tiny jobs per round.
	"fleet": {name: "fleet", kind: seedsStudy, seedsPerRound: 32, nodes: 8, iterations: 2, scale: 0.05, remote: true},
}

func (w workload) appNames() []string {
	if w.apps == nil {
		return specdsm.AppNames()
	}
	return w.apps
}

// jobsPerSeed is the number of simulations one seed contributes.
func (w workload) jobsPerSeed() int {
	if w.kind == predictorStudy {
		return len(w.appNames())
	}
	return 3 * len(w.appNames()) // Base, FR, SWI
}

func (w workload) jobsPerRound() int { return w.seedsPerRound * w.jobsPerSeed() }

// studyConfig is the library configuration every round starts from.
// Coherence checks stay on, as in the CLIs.
func (w workload) studyConfig() specdsm.StudyConfig {
	return specdsm.StudyConfig{
		Apps:       w.apps,
		Nodes:      w.nodes,
		Iterations: w.iterations,
		Scale:      w.scale,
		Parallel:   workers,
	}
}

// workloadParams is the generation input of one seed.
func (w workload) workloadParams(seed int64) specdsm.WorkloadParams {
	return specdsm.WorkloadParams{Nodes: w.nodes, Iterations: w.iterations, Scale: w.scale, Seed: seed}
}

// seeds lists the n seeds starting at base.
func seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// hooks observe a round's jobs; nil fields are skipped. Job numbers are
// positions within the round, in delivery order of the study.
type hooks struct {
	// jobDone runs when a job completes, with its host-time duration
	// (worker-measured on the fleet), concurrently from the workers.
	jobDone func(job int, d time.Duration)
	// rowEmitted runs when the study delivers a job's row, in order
	// (predict only: the other studies expose no row hook).
	rowEmitted func(job int)
}

// roundOut is one finished round.
type roundOut struct {
	base int64
	jobs int
	wall time.Duration // host time of the study calls alone
	cpu  time.Duration // CPU time of every process during those calls
	out  string        // rendered study output, digested by the gate
}

// errMismatch marks a correctness failure: output that differs from
// the digest gate or from the checkpoint replay.
var errMismatch = errors.New("output mismatch")

// runRound runs one round from seed base. hosts and ckpt are the shard
// addresses and checkpoint path prefix of the fleet workload; cpu reads
// the CPU time of every process involved.
func (w workload) runRound(base int64, hosts []string, ckpt string, h hooks, cpu func() time.Duration) (roundOut, error) {
	ro := roundOut{base: base, jobs: w.jobsPerRound()}
	switch w.kind {
	case predictorStudy:
		studies := make([][]specdsm.AppPrediction, w.seedsPerRound)
		cpu0, start := cpu(), time.Now()
		for k, seed := range seeds(base, w.seedsPerRound) {
			cfg := w.studyConfig()
			cfg.Seed = seed
			off := k * w.jobsPerSeed()
			if h.jobDone != nil {
				cfg.OnJobDone = func(i int, d time.Duration) { h.jobDone(off+i, d) }
			}
			err := specdsm.PredictorStudyStream(cfg, func(i int, row specdsm.AppPrediction) error {
				if h.rowEmitted != nil {
					h.rowEmitted(off + i)
				}
				studies[k] = append(studies[k], row)
				return nil
			})
			if err != nil {
				return ro, fmt.Errorf("perfbench: predictor study, seed %d: %w", seed, err)
			}
		}
		ro.wall, ro.cpu = time.Since(start), cpu()-cpu0
		var b strings.Builder
		for k, rows := range studies {
			fmt.Fprintf(&b, "seed %d\n", base+int64(k))
			b.WriteString(specdsm.RenderFigure7(specdsm.Figure7(rows)))
			b.WriteString(specdsm.RenderFigure8(specdsm.Figure8(rows, nil)))
			b.WriteString(specdsm.RenderTable3(specdsm.Table3(rows)))
			b.WriteString(specdsm.RenderTable4(specdsm.Table4(rows)))
		}
		ro.out = b.String()
		return ro, nil

	default:
		cfg := w.studyConfig()
		cfg.Remote = hosts
		cfg.CheckpointPath = ckpt
		if h.jobDone != nil {
			cfg.OnJobDone = h.jobDone
		}
		ss := seeds(base, w.seedsPerRound)
		cpu0, start := cpu(), time.Now()
		rows, err := specdsm.SpeculationStudySeeds(cfg, ss)
		ro.wall, ro.cpu = time.Since(start), cpu()-cpu0
		if err != nil {
			return ro, fmt.Errorf("perfbench: speculation study, seeds %d..%d: %w", base, ss[len(ss)-1], err)
		}
		ro.out = specdsm.RenderFigure9Aggregate(rows)
		if ckpt == "" {
			return ro, nil
		}
		// The delivered output must equal a resume replay of the
		// finished checkpoint, byte for byte.
		cfg.Resume = true
		cfg.OnJobDone = nil
		replayed, err := specdsm.SpeculationStudySeeds(cfg, ss)
		if err != nil {
			return ro, fmt.Errorf("perfbench: replaying checkpoint, seeds %d..%d: %w", base, ss[len(ss)-1], err)
		}
		if got := specdsm.RenderFigure9Aggregate(replayed); got != ro.out {
			return ro, fmt.Errorf("perfbench: seeds %d..%d: checkpoint replay differs from the delivered output: %w", base, ss[len(ss)-1], errMismatch)
		}
		// The next round opens a fresh checkpoint at the same path.
		if err := removeCheckpoint(ckpt); err != nil {
			return ro, err
		}
		return ro, nil
	}
}

// removeCheckpoint deletes the seeds study's checkpoint files under
// the path prefix.
func removeCheckpoint(prefix string) error {
	for _, p := range []string{prefix + ".seeds", prefix + ".seeds.tmp"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("perfbench: %w", err)
		}
	}
	return nil
}

// ckptPrefix is the checkpoint path prefix of a run's fleet rounds.
func ckptPrefix(dir string) string { return filepath.Join(dir, "fleet") }
