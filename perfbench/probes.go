package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"specdsm"
	"specdsm/internal/core"
	"specdsm/internal/machine"
	"specdsm/internal/mem"
	"specdsm/internal/sweep"
	"specdsm/internal/trace"
	appgen "specdsm/internal/workload"
)

// probeSeedOffset moves the probes' generation seeds away from every
// seed a run's rounds use, so each probe generation is cold.
const probeSeedOffset = 1_000_000

// fleetProbeSeeds is how many seeds the fleet's tiny jobs are probed
// over; one seed suffices for the full-size workloads.
const fleetProbeSeeds = 8

// ckptProbeRounds is the least number of checkpoints the fleet's
// checkpoint probe writes; it writes more until it has timed enough
// flushes for a p90.
const ckptProbeRounds = 2

// probes holds the layer measurements taken outside the studies: each
// probe calls one layer's exported function on the workload's own
// inputs, inside a span.
type probes struct {
	genMs, ops, allocMB []float64 // per cold AppWorkload call
	buildMs             []float64 // per machine.New
	runMs, noCheckMs    []float64 // per job: Arena.Run, checks on / off
	events, netMsgs     []float64 // per job
	dirRequests         []float64 // per job
	observeMs, entries  []float64 // per application run with observers
	replayNs, replayObs float64
	// Model counts, summed over the probed applications.
	baseCycles, swiCycles, specHits, specSent float64
	ckpt                                      *ckptProbe // fleet only
}

// ckptProbe holds the checkpoint write and read path measurements.
type ckptProbe struct {
	flushes      int
	bytesWritten float64
	flushMs      []float64
	finalBytes   float64
	replayMs     []float64
}

// prober runs the probes of one workload.
type prober struct {
	probes
	tr      *tracer
	w       workload
	on, off []machine.Config // the jobs' configurations, checks on / off
	// One warm arena per configuration, as a sweep worker holds.
	arenas, offArenas []*machine.Arena
}

// observerConfigs are the nine passive predictors of the predictor
// study: Cosmos, MSP and VMSP at depths 1, 2 and 4.
func observerConfigs() []specdsm.PredictorConfig {
	var out []specdsm.PredictorConfig
	for _, k := range specdsm.Kinds() {
		for _, d := range []int{1, 2, 4} {
			out = append(out, specdsm.PredictorConfig{Kind: k, Depth: d})
		}
	}
	return out
}

// jobConfigs are the machine configurations of w's jobs, as the
// library builds them from its study options: Base with the nine
// observers for predict; Base, FR and SWI (VMSP depth 1 active) for the
// seeds studies.
func jobConfigs(w workload, checks bool) []machine.Config {
	base := machine.Config{Nodes: w.nodes, DisableCoherenceCheck: !checks}
	if w.kind == predictorStudy {
		for _, k := range []core.Kind{core.KindCosmos, core.KindMSP, core.KindVMSP} {
			for _, d := range []int{1, 2, 4} {
				base.Observers = append(base.Observers, machine.PredictorSpec{Kind: k, Depth: d})
			}
		}
		return []machine.Config{base}
	}
	active := &machine.PredictorSpec{Kind: core.KindVMSP, Depth: 1}
	fr, swi := base, base
	fr.EnableFR, fr.Active = true, active
	swi.EnableFR, swi.EnableSWI, swi.Active = true, true, active
	return []machine.Config{base, fr, swi}
}

// probeSeeds lists the probes' generation seeds.
func probeSeeds(w workload, seed int64) []int64 {
	n := 1
	if w.remote {
		n = fleetProbeSeeds
	}
	return seeds(seed+probeSeedOffset, n)
}

// programs returns the generated programs of app at params, from the
// generation cache when an earlier call (or AppWorkload) built them.
func programs(app string, params specdsm.WorkloadParams) []machine.Program {
	gen, _ := appgen.ByName(app)
	return appgen.Programs(gen, appgen.Params{Nodes: params.Nodes, Iterations: params.Iterations, Scale: params.Scale, Seed: params.Seed})
}

// runProbes takes every layer probe of e's workload.
func runProbes(e *runEnv, tr *tracer) (*probes, error) {
	w := e.w
	p := &prober{tr: tr, w: w, on: jobConfigs(w, true), off: jobConfigs(w, false)}
	for i, c := range p.on {
		d := tr.do("probe/build"+strconv.Itoa(i), "machine.New", "", func() float64 {
			machine.New(c)
			return 1
		})
		p.buildMs = append(p.buildMs, ms(d))
	}
	// Build every arena's machine outside the timed runs, as a sweep
	// worker's first job does, on a seed no probe generates.
	warm := programs(w.appNames()[0], w.workloadParams(e.opts.seed+probeSeedOffset/2))
	for i := range p.on {
		p.arenas = append(p.arenas, machine.NewArena())
		p.offArenas = append(p.offArenas, machine.NewArena())
		if _, err := p.arenas[i].Run(p.on[i], warm); err != nil {
			return nil, err
		}
		if _, err := p.offArenas[i].Run(p.off[i], warm); err != nil {
			return nil, err
		}
	}
	for _, seed := range probeSeeds(w, e.opts.seed) {
		for _, app := range w.appNames() {
			if err := e.reaper.check(); err != nil {
				return nil, err
			}
			if err := p.probeApp(app, seed); err != nil {
				return nil, err
			}
		}
	}
	if w.remote {
		ck, err := probeCheckpoint(e, tr)
		if err != nil {
			return nil, err
		}
		p.ckpt = ck
	}
	return &p.probes, nil
}

// probeApp probes one application at one seed: cold generation, every
// job configuration through a warm arena with checks on and off, the
// nine observers through the public Run, SWI for the model counts, and
// an offline trace replay that must agree with the online observers.
func (p *prober) probeApp(app string, seed int64) error {
	tr, w := p.tr, p.w
	on, off, arenas, offArenas := p.on, p.off, p.arenas, p.offArenas
	job := fmt.Sprintf("probe/seed%d/%s", seed, app)
	params := w.workloadParams(seed)
	var (
		wl  specdsm.Workload
		err error
		m0  runtime.MemStats
		m1  runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	d := tr.do(job, "workload.AppWorkload", "", func() float64 {
		wl, err = specdsm.AppWorkload(app, params)
		return float64(wl.Ops())
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	p.genMs = append(p.genMs, ms(d))
	p.ops = append(p.ops, float64(wl.Ops()))
	p.allocMB = append(p.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

	// The generation cache serves the same programs AppWorkload built.
	progs := programs(app, params)
	var baseRes *machine.Result // the Base job, first in every configuration list
	for i := range on {
		var res *machine.Result
		runOn := func() {
			d := tr.do(job, "machine.Arena.Run", "", func() float64 {
				res, err = arenas[i].Run(on[i], progs)
				if err != nil {
					return 0
				}
				return float64(res.Events)
			})
			p.runMs = append(p.runMs, ms(d))
		}
		runOff := func() {
			d := tr.do(job, "machine.Arena.Run.nocheck", "", func() float64 {
				_, err = offArenas[i].Run(off[i], progs)
				return 0
			})
			p.noCheckMs = append(p.noCheckMs, ms(d))
		}
		// Alternate which run goes first, so that neither always finds
		// the caches warmed by the other.
		order := []func(){runOn, runOff}
		if len(p.runMs)%2 == 1 {
			order[0], order[1] = runOff, runOn
		}
		for _, run := range order {
			if err == nil {
				run()
			}
		}
		if err != nil {
			return err
		}
		if i == 0 {
			baseRes = res
		}
		p.events = append(p.events, float64(res.Events))
		p.netMsgs = append(p.netMsgs, float64(res.Network.Sent))
		p.dirRequests = append(p.dirRequests, float64(res.Dir.Reads+res.Dir.Writes+res.Dir.Upgrades))
	}

	// core: the nine observers through the public Run, and without.
	var withObs, base, swi *specdsm.RunResult
	dObs := tr.do(job, "specdsm.Run+observers", "", func() float64 {
		withObs, err = specdsm.Run(wl, specdsm.MachineOptions{Mode: specdsm.ModeBase, Observers: observerConfigs()})
		return 0
	})
	if err != nil {
		return err
	}
	dBase := tr.do(job, "specdsm.Run", "", func() float64 {
		base, err = specdsm.Run(wl, specdsm.MachineOptions{Mode: specdsm.ModeBase})
		return 0
	})
	if err != nil {
		return err
	}
	p.observeMs = append(p.observeMs, ms(dObs-dBase))
	entries := 0
	for _, pr := range withObs.Predictors {
		entries += pr.Entries
	}
	p.entries = append(p.entries, float64(entries))
	// The probe's machine configurations must be the library's own:
	// the Base job of the arena ran the same events as the public Run.
	want := base.Events
	if w.kind == predictorStudy {
		want = withObs.Events
	}
	if baseRes.Events != want {
		return fmt.Errorf("perfbench: %s: probe machine ran %d events, specdsm.Run %d: %w", job, baseRes.Events, want, errMismatch)
	}

	// Model counts: SWI against Base.
	tr.do(job, "specdsm.Run.swi", "", func() float64 {
		swi, err = specdsm.Run(wl, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
		return 0
	})
	if err != nil {
		return err
	}
	p.baseCycles += float64(base.Cycles)
	p.swiCycles += float64(swi.Cycles)
	p.specHits += float64(swi.SpecHits)
	p.specSent += float64(swi.SpecReadsFR + swi.SpecReadsSWI)

	return p.probeReplay(job, wl, withObs)
}

// probeReplay captures app's Base message trace and replays it through
// the nine predictors offline. EvaluateTrace must reproduce the online
// observers' measurements exactly.
func (p *prober) probeReplay(job string, wl specdsm.Workload, online *specdsm.RunResult) error {
	tr := p.tr
	var buf bytes.Buffer
	var err error
	tr.do(job, "specdsm.CaptureTrace", "", func() float64 {
		_, _, err = specdsm.CaptureTrace(wl, specdsm.MachineOptions{Mode: specdsm.ModeBase}, &buf)
		return float64(buf.Len())
	})
	if err != nil {
		return err
	}
	raw := buf.Bytes()
	t, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	nodes := t.Nodes
	if nodes < mem.InlineNodes {
		nodes = mem.InlineNodes
	}
	var preds []core.Predictor
	for _, c := range observerConfigs() {
		k := map[specdsm.PredictorKind]core.Kind{specdsm.Cosmos: core.KindCosmos, specdsm.MSP: core.KindMSP, specdsm.VMSP: core.KindVMSP}[c.Kind]
		preds = append(preds, core.NewSized(k, c.Depth, nodes))
	}
	d := tr.do(job, "trace.Replay", "", func() float64 {
		trace.Replay(t, preds...)
		return float64(len(t.Events) * len(preds))
	})
	p.replayNs += float64(d.Nanoseconds())
	p.replayObs += float64(len(t.Events) * len(preds))

	var offline []specdsm.PredictorResult
	tr.do(job, "specdsm.EvaluateTrace", "", func() float64 {
		offline, _, err = specdsm.EvaluateTrace(bytes.NewReader(raw), observerConfigs())
		return float64(len(offline))
	})
	if err != nil {
		return err
	}
	for i, got := range offline {
		want := online.Predictors[i]
		if got.Tracked != want.Tracked || got.Predicted != want.Predicted || got.Correct != want.Correct || got.Entries != want.Entries {
			return fmt.Errorf("perfbench: %s: offline %s-d%d replay differs from the online observer: %w", job, got.Kind, got.Depth, errMismatch)
		}
	}
	return nil
}

// probeCheckpoint writes the fleet's rows — one round of its job
// matrix, as *specdsm.RunResult in delivery order — through the
// checkpoint layer at the study's cadence, timing every flush, then
// reads each file back through the resume path.
func probeCheckpoint(e *runEnv, tr *tracer) (*ckptProbe, error) {
	w := e.w
	var rows []*specdsm.RunResult
	for _, seed := range seeds(e.opts.seed+2*probeSeedOffset, w.seedsPerRound) {
		for _, app := range w.appNames() {
			wl, err := specdsm.AppWorkload(app, w.workloadParams(seed))
			if err != nil {
				return nil, err
			}
			for _, mode := range []specdsm.Mode{specdsm.ModeBase, specdsm.ModeFR, specdsm.ModeSWI} {
				r, err := specdsm.Run(wl, specdsm.MachineOptions{Mode: mode})
				if err != nil {
					return nil, err
				}
				rows = append(rows, r)
			}
		}
	}
	cp := &ckptProbe{}
	const key = "perfbench/checkpoint-probe"
	for k := 0; k < ckptProbeRounds || len(cp.flushMs) < p90Samples; k++ {
		if err := e.reaper.check(); err != nil {
			return nil, err
		}
		job := fmt.Sprintf("probe/ckpt%d", k)
		path := filepath.Join(e.dir, fmt.Sprintf("ckpt-probe%d", k))
		var ck *sweep.Checkpoint
		var err error
		tr.do(job, "sweep.OpenCheckpoint", "", func() float64 {
			ck, err = sweep.OpenCheckpoint(path, key, 0)
			return 0
		})
		if err != nil {
			return nil, err
		}
		flushed := func(start time.Time) error {
			end := time.Now()
			fi, err := os.Stat(path)
			if err != nil {
				return fmt.Errorf("perfbench: %w", err)
			}
			tr.add(job, "sweep.Flush", "", start, end, float64(fi.Size()))
			cp.flushes++
			cp.bytesWritten += float64(fi.Size())
			cp.flushMs = append(cp.flushMs, ms(end.Sub(start)))
			return nil
		}
		for _, r := range rows {
			before, start := ck.Rows(), time.Now()
			if err := sweep.AppendRow(ck, r); err != nil {
				return nil, err
			}
			if ck.Rows() != before {
				if err := flushed(start); err != nil {
					return nil, err
				}
			}
		}
		if ck.Rows() < len(rows) {
			start := time.Now()
			if err := ck.Flush(); err != nil {
				return nil, err
			}
			if err := flushed(start); err != nil {
				return nil, err
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
		cp.finalBytes += float64(fi.Size())

		n := 0
		d := tr.do(job, "sweep.ResumeCheckpoint+ReplayCheckpoint", "", func() float64 {
			var rck *sweep.Checkpoint
			rck, err = sweep.ResumeCheckpoint(path, key, 0)
			if err != nil {
				return 0
			}
			err = sweep.ReplayCheckpoint(rck, func(int, *specdsm.RunResult) error { n++; return nil })
			return float64(n)
		})
		if err != nil {
			return nil, err
		}
		if n != len(rows) {
			return nil, fmt.Errorf("perfbench: checkpoint probe replayed %d of %d rows: %w", n, len(rows), errMismatch)
		}
		cp.replayMs = append(cp.replayMs, ms(d))
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
	}
	return cp, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// layerMsPerJob is the host time per study job that the layer probes
// account for: generation (shared by the three mode runs of the seeds
// studies), the arena run, and machine construction amortized over the
// jobs each worker arena serves in one study call.
func (p *probes) layerMsPerJob(w workload) float64 {
	gen := mean(p.genMs) * float64(len(w.appNames())) / float64(w.jobsPerSeed())
	jobsPerCall := w.jobsPerRound()
	if w.kind == predictorStudy {
		jobsPerCall = w.jobsPerSeed()
	}
	build := sum(p.buildMs) * workers / float64(jobsPerCall)
	return gen + mean(p.runMs) + build
}

// metrics adds the probes' per-layer metrics to m.
func (p *probes) metrics(m map[string]metric) error {
	m["workload.gen_ms"] = metric{mean(p.genMs), "ms"}
	m["workload.ops"] = metric{mean(p.ops), "count"}
	m["workload.alloc_mb"] = metric{mean(p.allocMB), "MB"}
	m["machine.build_ms"] = metric{mean(p.buildMs), "ms"}
	m["machine.run_ms"] = metric{mean(p.runMs), "ms"}
	m["machine.events"] = metric{mean(p.events), "count"}
	m["machine.ns_per_event"] = metric{sum(p.runMs) * 1e6 / sum(p.events), "ns"}
	m["machine.net_msgs"] = metric{mean(p.netMsgs), "count"}
	m["machine.dir_requests"] = metric{mean(p.dirRequests), "count"}
	m["machine.check_share"] = metric{1 - sum(p.noCheckMs)/sum(p.runMs), "ratio"}
	m["core.observe_ms"] = metric{mean(p.observeMs), "ms"}
	m["core.replay_ns_per_obs"] = metric{p.replayNs / p.replayObs, "ns"}
	m["core.entries"] = metric{mean(p.entries), "count"}
	m["model.swi_speedup"] = metric{p.baseCycles / p.swiCycles, "ratio"}
	m["model.spec_useful_ratio"] = metric{p.specHits / p.specSent, "ratio"}
	// Workloads that write no checkpoint report zeros.
	ck := p.ckpt
	var p50, p90 float64
	rounds := 1.0
	if ck == nil {
		ck = &ckptProbe{}
	} else {
		var ok bool
		p50, _ = quantile(ck.flushMs, 0.5)
		if p90, ok = quantile(ck.flushMs, 0.9); !ok {
			return fmt.Errorf("perfbench: %d checkpoint flushes are too few for a p90", len(ck.flushMs))
		}
		rounds = float64(len(ck.replayMs))
	}
	m["ckpt.flushes"] = metric{float64(ck.flushes) / rounds, "count"}
	m["ckpt.bytes_written"] = metric{ck.bytesWritten / rounds, "bytes"}
	m["ckpt.flush_p50_ms"] = metric{p50, "ms"}
	m["ckpt.flush_p90_ms"] = metric{p90, "ms"}
	m["ckpt.final_bytes"] = metric{ck.finalBytes / rounds, "bytes"}
	m["ckpt.replay_ms"] = metric{mean(ck.replayMs), "ms"}
	return nil
}
