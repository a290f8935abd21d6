package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupProbes is how many fresh-process set-ups a timed run measures;
// one set-up takes a few milliseconds, so the median needs many.
const setupProbes = 25

// runEnv is the state of one benchmark run.
type runEnv struct {
	opts    options
	w       workload
	dir     string // per-run scratch directory, removed at exit
	reaper  *reaper
	digests digestStore
	shards  []shard // running shard workers (fleet)
	rounds  int     // rounds run so far
	cpuErr  error   // first failure to read a shard's CPU time
}

// round runs the next round of the closed loop and gates its output.
func (e *runEnv) round(h hooks) (roundOut, error) {
	if err := e.reaper.check(); err != nil {
		return roundOut{}, err
	}
	base := e.opts.seed + int64(e.rounds*e.w.seedsPerRound)
	e.rounds++
	ck := ""
	if e.w.remote {
		ck = ckptPrefix(e.dir)
	}
	ro, err := e.w.runRound(base, shardAddrs(e.shards), ck, h, e.cpuNow)
	if err != nil {
		return ro, err
	}
	return ro, e.digests.check(e.w.name, ro.base, ro.out)
}

// cpuNow is the CPU time of every process of the run: this one plus
// the running shard workers.
func (e *runEnv) cpuNow() time.Duration {
	t := selfCPU()
	for _, s := range e.shards {
		c, err := procCPU(s.pid())
		if err != nil && e.cpuErr == nil {
			e.cpuErr = err
		}
		t += c
	}
	return t
}

// peakRSS is the summed peak RSS of every process of the run, in MiB.
func (e *runEnv) peakRSS() (float64, error) {
	total, err := peakRSSMB(0)
	if err != nil {
		return 0, err
	}
	for _, s := range e.shards {
		mb, err := peakRSSMB(s.pid())
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// startSweepd launches the run's two sweepd shard workers.
func (e *runEnv) startSweepd() error {
	ss, err := e.reaper.startShards(func(int) []string { return []string{e.opts.sweepd} }, workers)
	if err != nil {
		return err
	}
	e.shards = ss
	return nil
}

// loop runs rounds until the study time reaches seconds and at least
// minJobs jobs ran, with a calibration burst after each round when cal
// is not nil. It returns the finished rounds; a correctness mismatch
// ends the loop early and is returned with them.
func (e *runEnv) loop(seconds float64, h hooks, cal *calibration) ([]roundOut, error) {
	var rounds []roundOut
	var study time.Duration
	jobs := 0
	for study.Seconds() < seconds || jobs < minJobs {
		ro, err := e.round(h)
		if err != nil {
			if errors.Is(err, errMismatch) {
				rounds = append(rounds, ro)
			}
			return rounds, err
		}
		rounds = append(rounds, ro)
		study += ro.wall
		jobs += ro.jobs
		if cal != nil {
			cal.burst()
		}
	}
	return rounds, nil
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(e *runEnv) (result, error) {
	setups, err := measureSetup(e, setupProbes)
	if err != nil {
		return result{}, err
	}
	if e.w.remote {
		if err := e.startSweepd(); err != nil {
			return result{}, err
		}
	}
	var (
		mu   sync.Mutex
		durs []float64
	)
	h := hooks{jobDone: func(_ int, d time.Duration) {
		mu.Lock()
		durs = append(durs, ms(d))
		mu.Unlock()
	}}
	var cal calibration
	rounds, err := e.loop(e.opts.seconds, h, &cal)
	res := result{Correct: true}
	var wall, cpu time.Duration
	for _, ro := range rounds {
		res.Attempted += ro.jobs
		wall += ro.wall
		cpu += ro.cpu
	}
	if err != nil {
		if !errors.Is(err, errMismatch) {
			return result{}, err
		}
		fmt.Fprintln(os.Stderr, err)
		res.Correct = false
		res.Failed = res.Attempted
	}
	if e.cpuErr != nil {
		return result{}, e.cpuErr
	}
	rss, err := e.peakRSS()
	if err != nil {
		return result{}, err
	}
	mu.Lock()
	defer mu.Unlock()
	p50, ok50 := quantile(durs, 0.5)
	p90, ok90 := quantile(durs, 0.9)
	if res.Correct && (!ok50 || !ok90) {
		return result{}, fmt.Errorf("perfbench: %d job samples are too few for a p90", len(durs))
	}
	// Host times are reported at the nominal host speed (calib.go).
	// The CPU-time speed tracks contention for the core, caches and
	// memory; the wall-time speed adds every moment the host takes a
	// core away. The median job and CPU time see only the former; the
	// throughput, the set-up and the slowest jobs, which are the ones
	// descheduled, see both.
	speed, cpuSpeed := cal.speeds()
	rate := float64(res.Attempted) / wall.Seconds()
	cpuPerJob := ms(cpu) / float64(res.Attempted)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d calibration bursts, host speed %.4f (wall) %.4f (cpu) of nominal; "+
		"as measured: setup_s %.6f jobs_per_s %.4f job_p50_ms %.4f job_p90_ms %.4f cpu_ms_per_job %.4f\n",
		len(rounds), len(cal.arith), speed, cpuSpeed, median(setups), rate, p50, p90, cpuPerJob)
	res.Metrics = map[string]metric{
		"setup_s":        {median(setups) * speed, "s"},
		"jobs_per_s":     {rate / speed, "1/s"},
		"job_p50_ms":     {p50 * cpuSpeed, "ms"},
		"job_p90_ms":     {p90 * speed, "ms"},
		"cpu_ms_per_job": {cpuPerJob * cpuSpeed, "ms"},
		"rss_peak_mb":    {rss, "MB"},
		"ok_ratio":       {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
	}
	return res, nil
}

// measureSetup starts n fresh benchmark processes in set-up probe mode
// and returns, for each, the seconds from its start until its first job
// was submitted.
func measureSetup(e *runEnv, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	argv := []string{exe, "--setup-probe", "--workload", e.w.name,
		"--seed", strconv.FormatInt(e.opts.seed, 10), "--workdir", e.dir}
	if e.opts.sweepd != "" {
		argv = append(argv, "--sweepd", e.opts.sweepd)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := e.reaper.check(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, line, err := e.reaper.start(argv, "first-job ", time.Minute)
		if err != nil {
			return nil, err
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("perfbench: set-up probe printed %q", line)
		}
		// The probe stops its own children and exits once it has
		// reported; stop it only if it does not.
		select {
		case <-c.done:
		case <-time.After(30 * time.Second):
			terminate(c)
		}
		out = append(out, time.Unix(0, ns).Sub(t0).Seconds())
	}
	return out, nil
}

// setupProbe is the child side of measureSetup: it sets the workload up
// as a run does — for fleet, launching both sweepd workers until they
// listen and opening the checkpoint — starts one seed's study, prints
// the start time of the first job, and exits.
func setupProbe(o options, r *reaper) error {
	w := workloads[o.workload]
	w.seedsPerRound = 1
	var once sync.Once
	first := func(_ int, d time.Duration) {
		once.Do(func() {
			fmt.Printf("first-job %d\n", time.Now().Add(-d).UnixNano())
			r.stop()
			os.Exit(0)
		})
	}
	var hosts []string
	ck := ""
	if w.remote {
		dir, err := os.MkdirTemp(o.workdir, "probe-")
		if err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
		r.removeLater(dir)
		ss, err := r.startShards(func(int) []string { return []string{o.sweepd} }, workers)
		if err != nil {
			return err
		}
		hosts, ck = shardAddrs(ss), ckptPrefix(dir)
	}
	if _, err := w.runRound(o.seed, hosts, ck, hooks{jobDone: first}, selfCPU); err != nil {
		return err
	}
	return errors.New("perfbench: set-up probe finished without completing a job")
}
