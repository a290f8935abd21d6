package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// tracedShare is the share of --seconds each of the traced run's two
// study phases measures: rounds with tracing off, then rounds with
// spans and CPU profiling on. The layer probes follow.
const tracedShare = 0.4

// span is one timed call into a layer. Spans of one job share Job.
type span struct {
	Job    string  `json:"job"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  int64   `json:"start_ns"` // since the traced run began
	End    int64   `json:"end_ns"`
	Count  float64 `json:"count,omitempty"` // work done, where the layer reports it
}

// tracer keeps spans in memory; write saves them once, at exit.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(job, name, parent string, start, end time.Time, count float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Job: job, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Count: count})
	t.mu.Unlock()
}

// do runs f inside a span and returns the span's duration; f returns
// the span's work count.
func (t *tracer) do(job, name, parent string, f func() float64) time.Duration {
	start := time.Now()
	n := f()
	end := time.Now()
	t.add(job, name, parent, start, end, n)
	return end.Sub(start)
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("perfbench: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	return nil
}

// phase summarizes a sequence of rounds.
type phase struct {
	jobs int
	wall time.Duration
}

func (p *phase) add(ro roundOut) {
	p.jobs += ro.jobs
	p.wall += ro.wall
}

func (p phase) rate() float64 { return float64(p.jobs) / p.wall.Seconds() }

// tracedRun records the per-layer metrics: an untraced phase, a traced
// and profiled phase over the same kind of rounds, then the layer
// probes. The spans are written to the work directory at exit.
func tracedRun(e *runEnv) (result, error) {
	tr := &tracer{t0: time.Now()}
	res := result{Correct: true}
	// A correctness mismatch fails every job attempted in the run.
	fail := func(err error) (result, error) {
		if !errors.Is(err, errMismatch) {
			return result{}, err
		}
		fmt.Fprintln(os.Stderr, err)
		res.Correct, res.Failed = false, res.Attempted
		return res, nil
	}

	if e.w.remote {
		if err := e.startSweepd(); err != nil {
			return result{}, err
		}
	}
	var untraced phase
	rounds, err := e.loop(e.opts.seconds*tracedShare, hooks{}, nil)
	for _, ro := range rounds {
		untraced.add(ro)
	}
	res.Attempted += untraced.jobs
	if err != nil {
		return fail(err)
	}

	// Traced phase: on the fleet the shard workers are replaced by
	// profiling ones that serve the same runner.
	profDir := filepath.Join(e.dir, "prof")
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	profiles := []string{filepath.Join(profDir, "bench.pprof")}
	var statsPaths []string
	if e.w.remote {
		shardProfiles, stats, err := e.profileShards(profDir)
		if err != nil {
			return result{}, err
		}
		profiles, statsPaths = append(profiles, shardProfiles...), stats
	}
	jt := newJobTracer(tr)
	pf, err := os.Create(profiles[0])
	if err != nil {
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	var traced phase
	for traced.wall.Seconds() < e.opts.seconds*tracedShare || traced.jobs < minJobs {
		round := e.rounds
		start := time.Now()
		ro, err := e.round(jt.hooks(round))
		tr.add(roundID(round), "study", "", start, time.Now(), float64(ro.jobs))
		if err != nil {
			pprof.StopCPUProfile()
			pf.Close()
			res.Attempted += traced.jobs + ro.jobs
			return fail(err)
		}
		traced.add(ro)
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return result{}, fmt.Errorf("perfbench: %w", err)
	}
	rt1 := readRuntime()
	res.Attempted += traced.jobs
	rt := runtimeSample{
		allocBytes: rt1.allocBytes - rt0.allocBytes,
		gcCPU:      rt1.gcCPU - rt0.gcCPU,
		busyCPU:    rt1.busyCPU - rt0.busyCPU,
	}
	if e.w.remote {
		stopShards(e.shards)
		e.shards = nil
		for _, p := range statsPaths {
			ws, err := readWorkerStats(p)
			if err != nil {
				return result{}, err
			}
			rt.allocBytes += ws.AllocBytes
			rt.gcCPU += ws.GCCPU
			rt.busyCPU += ws.BusyCPU
		}
	}

	pr, err := runProbes(e, tr)
	if err != nil {
		return fail(err)
	}
	shares, err := profileShares(profiles)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(e.opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.w.name, e.opts.seed))); err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	if err := pr.metrics(m); err != nil {
		return result{}, err
	}
	jobSum, jobN := jt.jobTime()
	m["sweep.busy_ratio"] = metric{jobSum.Seconds() / (traced.wall.Seconds() * workers), "ratio"}
	m["sweep.merge_wait_ms"] = metric{jt.mergeWaitMs(), "ms"}
	overhead := 0.0
	if e.w.remote {
		overhead = (traced.wall.Seconds()*workers - jobSum.Seconds()) / float64(traced.jobs) * 1e6
	}
	m["remote.overhead_us_per_job"] = metric{overhead, "us"}
	m["gc.cpu_share"] = metric{rt.gcCPU / rt.busyCPU, "ratio"}
	m["alloc_mb_per_job"] = metric{rt.allocBytes / float64(traced.jobs) / (1 << 20), "MB"}
	for _, g := range profGroups {
		m["prof."+g] = metric{shares[g], "ratio"}
	}
	m["trace.overhead_ratio"] = metric{untraced.rate()/traced.rate() - 1, "ratio"}
	studyJobMs := ms(jobSum) / float64(jobN)
	m["trace.unattributed_share"] = metric{1 - pr.layerMsPerJob(e.w)/studyJobMs, "ratio"}
	res.Metrics = m
	return res, nil
}

// profileShards replaces the fleet's sweepd workers with ones that
// serve the same runner and also profile themselves, and returns the
// paths of their CPU profiles and runtime statistics.
func (e *runEnv) profileShards(dir string) (profiles, stats []string, err error) {
	stopShards(e.shards)
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: %w", err)
	}
	ss, err := e.reaper.startShards(func(k int) []string {
		p := filepath.Join(dir, "shard"+strconv.Itoa(k))
		profiles = append(profiles, p+".pprof")
		stats = append(stats, p+".json")
		return []string{exe, "--serve", "--cpuprofile", p + ".pprof", "--stats", p + ".json"}
	}, workers)
	if err != nil {
		return nil, nil, err
	}
	e.shards = ss
	return profiles, stats, nil
}

func roundID(round int) string { return "round" + strconv.Itoa(round) }

// jobTracer turns a traced round's job hooks into spans and keeps the
// per-job numbers the sweep and remote metrics need.
type jobTracer struct {
	tr      *tracer
	mu      sync.Mutex
	done    map[string]time.Time // job id → completion
	jobSum  time.Duration
	jobN    int
	waitSum time.Duration
	waitN   int
}

func newJobTracer(tr *tracer) *jobTracer {
	return &jobTracer{tr: tr, done: map[string]time.Time{}}
}

func (jt *jobTracer) hooks(round int) hooks {
	parent := roundID(round)
	id := func(job int) string { return parent + "/job" + strconv.Itoa(job) }
	return hooks{
		jobDone: func(job int, d time.Duration) {
			end := time.Now()
			jt.tr.add(id(job), "job", parent, end.Add(-d), end, 1)
			jt.mu.Lock()
			jt.done[id(job)] = end
			jt.jobSum += d
			jt.jobN++
			jt.mu.Unlock()
		},
		rowEmitted: func(job int) {
			now := time.Now()
			jt.mu.Lock()
			end, ok := jt.done[id(job)]
			if ok {
				jt.waitSum += now.Sub(end)
				jt.waitN++
			}
			jt.mu.Unlock()
			if ok {
				jt.tr.add(id(job), "merge.wait", parent, end, now, 1)
			}
		},
	}
}

func (jt *jobTracer) jobTime() (time.Duration, int) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.jobSum, jt.jobN
}

// mergeWaitMs is the mean time a completed job's row waited for its
// predecessors in the ordered merge; 0 where the study exposes no row
// hook.
func (jt *jobTracer) mergeWaitMs() float64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.waitN == 0 {
		return 0
	}
	return ms(jt.waitSum) / float64(jt.waitN)
}

func readWorkerStats(path string) (workerStats, error) {
	var ws workerStats
	b, err := os.ReadFile(path)
	if err != nil {
		return ws, fmt.Errorf("perfbench: shard statistics: %w", err)
	}
	if err := json.Unmarshal(b, &ws); err != nil {
		return ws, fmt.Errorf("perfbench: shard statistics %s: %w", path, err)
	}
	return ws, nil
}
