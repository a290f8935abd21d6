package specdsm

import (
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"time"

	"specdsm/internal/analytic"
	"specdsm/internal/core"
	"specdsm/internal/fault"
	"specdsm/internal/sweep"
	"specdsm/internal/workload"
)

// StudyConfig parameterizes the experiment drivers. Zero values select
// the paper's setup: all seven applications, 16 nodes, scale 1.0, seed 1,
// per-application default iteration counts, depths {1, 2, 4}.
type StudyConfig struct {
	Apps       []string
	Nodes      int
	Iterations int
	Scale      float64
	Seed       int64
	// Depths are the history depths PredictorStudyStream observes at.
	// The paper's experiments ignore them: Figure 8 and Table 4 need
	// depths 1, 2 and 4, which the speculation study always observes.
	Depths []int
	// DisableChecks speeds up benchmark runs.
	DisableChecks bool
	// Parallel is the number of simulations run concurrently (0 or
	// negative selects runtime.NumCPU()). Results are independent of
	// this knob: every study merges job results in submission order, so
	// Parallel: 1 and Parallel: N produce identical output.
	Parallel int
	// OnJobDone, when non-nil, is invoked after every completed
	// simulation job with the job's index and wall-clock duration — live
	// sweep progress on big matrices. Jobs complete concurrently and out
	// of index order when Parallel > 1, so the callback must be safe for
	// concurrent use (sweep.ProgressETA wraps a log/slog logger suitably).
	// The hook never affects study results.
	OnJobDone func(index int, d time.Duration)
	// Progress, when non-nil, logs every completed simulation job at
	// Info level with completed/total counts and an ETA estimated from
	// the recent completion rate (sweep.ProgressETA). It composes with
	// OnJobDone and, like it, never affects study results.
	Progress *slog.Logger
	// CheckpointPath, when non-empty, streams every simulating study
	// through a crash-safe on-disk checkpoint at <path>.<study>, where
	// study is the Experiment.Study of the artifacts it feeds ("sweep"
	// for RunSweepStream): every settled simulation — one *RunResult, or a
	// keep-going failure — is appended periodically and synced, so an
	// interrupted sweep can be resumed instead of restarted. See
	// internal/sweep for the file format.
	CheckpointPath string
	// Resume continues from an existing checkpoint written by an
	// identically configured earlier run (a missing file starts fresh,
	// so the same resume-enabled invocation works before and after an
	// interruption). Saved rows are replayed without re-simulation;
	// output is byte-identical to an uninterrupted run at any Parallel.
	// A damaged file resumes from its longest valid prefix and re-runs
	// the rest; one that is not this study's checkpoint (another key or
	// format version, or not a checkpoint at all) is refused untouched
	// (sweep.ResumeCheckpoint). Without Resume, an existing checkpoint
	// file is an error — saved work is never silently clobbered.
	Resume bool
	// CheckpointEvery is the flush cadence in completed rows
	// (0 = sweep.DefaultCheckpointEvery). At most this many completed
	// rows are lost on a crash, beyond one merge window.
	CheckpointEvery int
	// Retries is the per-job transient retry budget: a simulation job
	// failing with a sweep.Transient-marked error is re-run in place up
	// to this many more times before the failure becomes permanent.
	// Fatal errors (including panics) are never retried. Retried sweeps
	// whose transient faults clear within budget produce output
	// byte-identical to a fault-free run.
	Retries int
	// KeepGoing records fatal job failures as explicit FAILED rows
	// (each row type's Failed field carries the error text) instead of
	// aborting the study: an overnight sweep returns the surviving
	// science plus an exact re-run list. Failures occupy checkpoint
	// frames, so a resumed keep-going sweep replays them identically.
	KeepGoing bool
	// OnSalvage, when non-nil, is told what Resume dropped from each
	// study checkpoint it did not adopt whole (a torn tail, damaged
	// frames, a torn first flush); it is not called for clean files.
	// Purely informational.
	OnSalvage func(study string, rep sweep.SalvageReport)
	// FaultSpec, when non-empty, arms deterministic fault injection for
	// every simulation job, in the internal/fault spec syntax, e.g.
	// "seed=7,transient=0.2,delay=0.5". Injected transient faults
	// compose with Retries; injected panics are fatal (KeepGoing turns
	// them into FAILED rows). Connection-level keys (conndrop,
	// connshort, conndelay) apply to the dispatcher's shard connections
	// when Remote is set. Exists for robustness testing — the chaos
	// harness runs real studies under this knob and byte-compares their
	// output against clean runs.
	FaultSpec string
	// Remote, when non-empty, fans the study's simulation jobs out to
	// sweepd shard workers at these host:port addresses instead of the
	// in-process workers. Each shard connection (internal/remote) is
	// heartbeated and has its work re-dispatched when it dies or
	// straggles; a single in-process worker takes jobs that keep killing
	// shards and everything once no shard is reachable. Results are
	// delivered in index order, so output — including checkpoint
	// contents — is byte-identical to a local Parallel: 1 run at any
	// shard count and under any shard failures. Parallel is ignored on
	// this path (the fleet is the parallelism).
	Remote []string
	// RemoteLogf, when non-nil, receives the dispatcher's shard
	// lifecycle diagnostics (connects, deaths, reconnects). Purely
	// informational.
	RemoteLogf func(format string, args ...any)
}

func (c StudyConfig) withDefaults() StudyConfig {
	if len(c.Apps) == 0 {
		c.Apps = AppNames()
	}
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 2, 4}
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	return c
}

// pool builds the worker pool all study drivers fan their jobs out on:
// rs's retry/fault policy on Parallel workers, plus the progress hooks.
// total is how many jobs will actually run (it sizes the ETA — rows
// replayed from a checkpoint never report progress). Call on a config
// that already has defaults applied.
func (c StudyConfig) pool(rs studySpec, total int) (*sweep.Pool, error) {
	p, err := rs.pool(c.Parallel)
	if err != nil {
		return nil, err
	}
	p.OnJobDone = c.OnJobDone
	if c.Progress != nil {
		eta := sweep.ProgressETA(c.Progress, total)
		if user := c.OnJobDone; user != nil {
			p.OnJobDone = func(i int, d time.Duration) {
				eta(i, d)
				user(i, d)
			}
		} else {
			p.OnJobDone = eta
		}
	}
	return p, nil
}

// checkpoint opens the study's checkpoint at <CheckpointPath>.<study>,
// or returns nil when checkpointing is unconfigured. The key is the
// study spec plus keep-going and the job count, so resuming under
// different flags fails loudly instead of splicing incompatible rows.
// Retries, FaultSpec and KeepGoing belong to it: under injected faults
// they decide which jobs end up as FAILED frames.
func (c StudyConfig) checkpoint(rs studySpec, jobs int) (*sweep.Checkpoint, error) {
	if c.CheckpointPath == "" {
		return nil, nil
	}
	study, key := rs.Study, rs.key(c.KeepGoing, jobs)
	path := c.CheckpointPath + "." + study
	if !c.Resume {
		return sweep.OpenCheckpoint(path, key, c.CheckpointEvery)
	}
	ck, err := sweep.ResumeCheckpoint(path, key, c.CheckpointEvery)
	if err == nil && c.OnSalvage != nil && ck.Salvaged().Reason != "" {
		c.OnSalvage(study, ck.Salvaged())
	}
	return ck, err
}

func (c StudyConfig) workloadParams() WorkloadParams {
	return WorkloadParams{
		Nodes:      c.Nodes,
		Iterations: c.Iterations,
		Scale:      c.Scale,
		Seed:       c.Seed,
	}
}

// AppPrediction holds every predictor measurement for one application's
// Base-DSM run: all three predictor kinds at every configured depth,
// observing the identical message stream.
type AppPrediction struct {
	App string
	// Predictors are the Base run's observers, in attachment order.
	Predictors []PredictorResult
	// Requests supports normalization.
	Reads, Writes, Upgrades uint64
	// Failed carries the job's error text when the study ran with
	// KeepGoing and this application's simulation failed fatally; the
	// measurement fields are zero. Empty on success.
	Failed string
}

// Get returns the result for (kind, depth), as RunResult.Predictor
// does; the zero PredictorResult when that configuration did not
// observe.
func (a AppPrediction) Get(kind PredictorKind, depth int) PredictorResult {
	p, _ := findPredictor(a.Predictors, kind, depth)
	return p
}

// PredictorStudyStream runs Base-DSM once per application with all
// predictor variants attached passively and streams each application's
// row, in cfg.Apps order, to emit as soon as it and all its
// predecessors are done: rows flow through the pool's bounded merge
// window (and, when configured, the checkpoint at
// <CheckpointPath>.predictor) instead of accumulating in a result
// slice. The per-application runs execute on a cfg.Parallel-wide worker
// pool, each worker replaying its jobs through one run arena. It
// observes at cfg.Depths, which scope this study only: the paper's
// experiments render Figures 7-8 and Tables 3-4 from the speculation
// study's Base runs, which always observe depths 1, 2 and 4.
func PredictorStudyStream(cfg StudyConfig, emit func(i int, row AppPrediction) error) error {
	cfg = cfg.withDefaults()
	opts := MachineOptions{Mode: ModeBase, DisableChecks: cfg.DisableChecks, Observers: observers(cfg.Depths)}
	return streamStudy(cfg, cfg.spec("predictor", opts), func(i int, runs []*RunResult, failed string) error {
		return emit(i, appPrediction(cfg.Apps[i], runs[0], failed))
	})
}

// observers attaches every predictor kind at each of depths.
func observers(depths []int) (obs []PredictorConfig) {
	for _, kind := range Kinds() {
		for _, d := range depths {
			obs = append(obs, PredictorConfig{Kind: kind, Depth: d})
		}
	}
	return obs
}

// appPrediction assembles an application's predictor row from the
// observers of its Base run (nil when failed is set).
func appPrediction(app string, base *RunResult, failed string) AppPrediction {
	ap := AppPrediction{App: app, Failed: failed}
	if failed == "" {
		ap.Predictors = base.Predictors
		ap.Reads, ap.Writes, ap.Upgrades = base.Reads, base.Writes, base.Upgrades
	}
	return ap
}

// appSpeculation holds the Base/FR/SWI runs for one application (§7.4).
type appSpeculation struct {
	App  string
	Base *RunResult
	FR   *RunResult
	SWI  *RunResult
	// Failed carries the failed mode runs' error text when the study ran
	// with KeepGoing and any of this application's three simulations
	// failed fatally; the run pointers are all nil then (a partial
	// triple cannot be normalized against its own Base). Empty on
	// success.
	Failed string
}

// specModes is the mode column order of §7.4's comparison.
var specModes = []Mode{ModeBase, ModeFR, ModeSWI}

// speculationStudyStream is the paper's study: it runs every
// application under Base-DSM, FR-DSM, and SWI-DSM (VMSP depth 1 active,
// as in the paper) and streams each application's assembled row, in
// cfg.Apps order, to emit. The Base run also carries every predictor
// kind at depths 1, 2 and 4 as passive observers, whatever cfg.Depths
// says, so one run feeds Figures 7-9 and Tables 3-5. The len(Apps)×3
// simulations fan out as individual jobs across the cfg.Parallel-wide
// worker pool (one run arena per worker) and are merged back
// mode-major; checkpointing operates at single-simulation granularity,
// so a resume re-runs only the missing mode runs.
func speculationStudyStream(cfg StudyConfig, emit func(i int, row appSpeculation) error) error {
	cfg = cfg.withDefaults()
	rs := cfg.spec(speculationStudy, MachineOptions{DisableChecks: cfg.DisableChecks, Observers: observers([]int{1, 2, 4})})
	rs.Modes = specModes
	apps := cfg.Apps
	return streamStudy(cfg, rs, func(i int, runs []*RunResult, failed string) error {
		row := appSpeculation{App: apps[i], Failed: failed}
		if failed == "" {
			row.Base, row.FR, row.SWI = runs[0], runs[1], runs[2]
		}
		return emit(i, row)
	})
}

// predictions is the predictor study a speculation study holds: each
// application's observers on its Base run.
func predictions(study []appSpeculation) []AppPrediction {
	out := make([]AppPrediction, len(study))
	for i, as := range study {
		out[i] = appPrediction(as.App, as.Base, as.Failed)
	}
	return out
}

// Figure7Row is one group of bars of Figure 7: base predictor accuracy at
// history depth one.
type Figure7Row struct {
	App    string
	Cosmos float64
	MSP    float64
	VMSP   float64
	// Failed marks a keep-going FAILED row; the accuracies are zero.
	Failed string
}

// Figure7 derives the Figure 7 data from a predictor study.
func Figure7(study []AppPrediction) []Figure7Row {
	var out []Figure7Row
	for _, ap := range study {
		if ap.Failed != "" {
			out = append(out, Figure7Row{App: ap.App, Failed: ap.Failed})
			continue
		}
		out = append(out, Figure7Row{
			App:    ap.App,
			Cosmos: ap.Get(Cosmos, 1).Accuracy(),
			MSP:    ap.Get(MSP, 1).Accuracy(),
			VMSP:   ap.Get(VMSP, 1).Accuracy(),
		})
	}
	return out
}

// Figure8Row is one application of Figure 8: accuracy per predictor per
// history depth.
type Figure8Row struct {
	App      string
	Depths   []int
	Accuracy map[PredictorKind][]float64 // indexed like Depths
	// Failed marks a keep-going FAILED row; Accuracy is nil.
	Failed string
}

// Figure8 derives the Figure 8 data from a predictor study.
func Figure8(study []AppPrediction, depths []int) []Figure8Row {
	if len(depths) == 0 {
		depths = []int{1, 2, 4}
	}
	var out []Figure8Row
	for _, ap := range study {
		if ap.Failed != "" {
			out = append(out, Figure8Row{App: ap.App, Depths: depths, Failed: ap.Failed})
			continue
		}
		row := Figure8Row{App: ap.App, Depths: depths, Accuracy: make(map[PredictorKind][]float64)}
		for _, kind := range Kinds() {
			for _, d := range depths {
				row.Accuracy[kind] = append(row.Accuracy[kind], ap.Get(kind, d).Accuracy())
			}
		}
		out = append(out, row)
	}
	return out
}

// Table3Row reports the fraction of messages predicted (coverage) and
// predicted correctly, per predictor, at depth one.
type Table3Row struct {
	App      string
	Coverage map[PredictorKind]float64
	Correct  map[PredictorKind]float64
	// Failed marks a keep-going FAILED row; the maps are nil.
	Failed string
}

// Table3 derives the Table 3 data from a predictor study.
func Table3(study []AppPrediction) []Table3Row {
	var out []Table3Row
	for _, ap := range study {
		if ap.Failed != "" {
			out = append(out, Table3Row{App: ap.App, Failed: ap.Failed})
			continue
		}
		row := Table3Row{
			App:      ap.App,
			Coverage: make(map[PredictorKind]float64),
			Correct:  make(map[PredictorKind]float64),
		}
		for _, kind := range Kinds() {
			pr := ap.Get(kind, 1)
			row.Coverage[kind] = pr.Coverage()
			row.Correct[kind] = pr.CorrectFraction()
		}
		out = append(out, row)
	}
	return out
}

// Table4Row reports pattern-table entries per allocated block at depths 1
// and 4, and the depth-1 byte overhead, per predictor.
type Table4Row struct {
	App   string
	PTE1  map[PredictorKind]float64
	PTE4  map[PredictorKind]float64
	Bytes map[PredictorKind]float64
	// Failed marks a keep-going FAILED row; the maps are nil.
	Failed string
}

// Table4 derives the Table 4 data from a predictor study.
func Table4(study []AppPrediction) []Table4Row {
	var out []Table4Row
	for _, ap := range study {
		if ap.Failed != "" {
			out = append(out, Table4Row{App: ap.App, Failed: ap.Failed})
			continue
		}
		row := Table4Row{
			App:   ap.App,
			PTE1:  make(map[PredictorKind]float64),
			PTE4:  make(map[PredictorKind]float64),
			Bytes: make(map[PredictorKind]float64),
		}
		for _, kind := range Kinds() {
			row.PTE1[kind] = ap.Get(kind, 1).EntriesPerBlock()
			row.PTE4[kind] = ap.Get(kind, 4).EntriesPerBlock()
			row.Bytes[kind] = ap.Get(kind, 1).BytesPerBlock()
		}
		out = append(out, row)
	}
	return out
}

// figure9Row is one application of Figure 9: execution time normalized to
// Base-DSM, split into computation (incl. synchronization) and remote
// request waiting.
type figure9Row struct {
	App string
	// Each pair is (computation%, request%) of Base-DSM's execution time.
	Base [2]float64
	FR   [2]float64
	SWI  [2]float64
	// Failed marks a keep-going FAILED row; the splits are zero.
	Failed string
}

// Total returns computation+request for the given mode column.
func (r figure9Row) Total(mode Mode) float64 {
	switch mode {
	case ModeFR:
		return r.FR[0] + r.FR[1]
	case ModeSWI:
		return r.SWI[0] + r.SWI[1]
	default:
		return r.Base[0] + r.Base[1]
	}
}

// figure9 derives the Figure 9 data from a speculation study.
func figure9(study []appSpeculation) []figure9Row {
	var out []figure9Row
	for _, as := range study {
		if as.Failed != "" {
			out = append(out, figure9Row{App: as.App, Failed: as.Failed})
			continue
		}
		base := float64(as.Base.Cycles)
		split := func(r *RunResult) [2]float64 {
			total := float64(r.Cycles) / base * 100
			share := r.RequestShare()
			return [2]float64{total * (1 - share), total * share}
		}
		out = append(out, figure9Row{
			App:  as.App,
			Base: split(as.Base),
			FR:   split(as.FR),
			SWI:  split(as.SWI),
		})
	}
	return out
}

// table5Row reports request counts and speculation/misspeculation
// frequencies, as percentages of the Base-DSM request counts.
type table5Row struct {
	App        string
	BaseReads  uint64
	BaseWrites uint64 // writes + upgrades
	// FR-DSM.
	FRSent float64
	FRMiss float64
	// SWI-DSM: reads triggered via FR, via SWI, and write invalidations.
	SWIFRSent    float64
	SWIFRMiss    float64
	SWIReadSent  float64
	SWIReadMiss  float64
	SWIInvalSent float64
	SWIInvalMiss float64
	// Failed marks a keep-going FAILED row; every count is zero.
	Failed string
}

// table5 derives the Table 5 data from a speculation study.
func table5(study []appSpeculation) []table5Row {
	pct := func(n uint64, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d) * 100
	}
	var out []table5Row
	for _, as := range study {
		if as.Failed != "" {
			out = append(out, table5Row{App: as.App, Failed: as.Failed})
			continue
		}
		reads := as.Base.Reads
		writes := as.Base.WriteLike()
		// Misses are verification-confirmed misspeculations (invalidated
		// without reference); copies still unreferenced when the run ends
		// are end-of-run artifacts, not verified misses. In SWI-DSM the
		// misses cannot be split by trigger, so attribute them
		// proportionally to the forwards sent.
		swiSent := as.SWI.SpecReadsSWI
		frSent := as.SWI.SpecReadsFR
		unused := as.SWI.SpecReadUnused
		var frMiss, swiMiss uint64
		if tot := swiSent + frSent; tot > 0 {
			frMiss = unused * frSent / tot
			swiMiss = unused - frMiss
		}
		out = append(out, table5Row{
			App:          as.App,
			BaseReads:    reads,
			BaseWrites:   writes,
			FRSent:       pct(as.FR.SpecReadsFR, reads),
			FRMiss:       pct(as.FR.SpecReadUnused, reads),
			SWIFRSent:    pct(frSent, reads),
			SWIFRMiss:    pct(frMiss, reads),
			SWIReadSent:  pct(swiSent, reads),
			SWIReadMiss:  pct(swiMiss, reads),
			SWIInvalSent: pct(as.SWI.SWIRecalls, writes),
			SWIInvalMiss: pct(as.SWI.SWIPremature, writes),
		})
	}
	return out
}

// AnalyticParams re-exports the §5 model inputs.
type AnalyticParams = analytic.Params

// AnalyticSpeedup evaluates Equation 2 of the paper.
func AnalyticSpeedup(p AnalyticParams) float64 { return analytic.Speedup(p) }

// AnalyticCommSpeedup evaluates Equation 1 of the paper.
func AnalyticCommSpeedup(p AnalyticParams) float64 { return analytic.CommSpeedup(p) }

// Validate sanity-checks a study config early.
func (c StudyConfig) Validate() error {
	cc := c.withDefaults()
	for _, app := range cc.Apps {
		if _, ok := workload.ByName(app); !ok {
			return fmt.Errorf("specdsm: unknown application %q", app)
		}
	}
	if err := checkNodes(cc.Nodes); err != nil {
		return err
	}
	for _, d := range cc.Depths {
		if d < 1 || d > core.MaxDepth {
			return fmt.Errorf("specdsm: invalid depth %d (supported range [1,%d])", d, core.MaxDepth)
		}
	}
	if cc.Retries < 0 {
		return fmt.Errorf("specdsm: negative retry budget %d", cc.Retries)
	}
	if cc.FaultSpec != "" {
		if _, err := fault.ParseSpec(cc.FaultSpec); err != nil {
			return fmt.Errorf("specdsm: %w", err)
		}
	}
	for _, h := range cc.Remote {
		if _, _, err := net.SplitHostPort(h); err != nil {
			return fmt.Errorf("specdsm: invalid remote shard address %q (want host:port): %v", h, err)
		}
	}
	return nil
}
