package specdsm

import (
	"fmt"

	"specdsm/internal/core"
	"specdsm/internal/machine"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
	"specdsm/internal/workload"
)

// Mode selects the DSM flavor of §7.4.
type Mode string

const (
	// ModeBase is the conventional DSM with no speculation.
	ModeBase Mode = "base"
	// ModeFR triggers read-sequence speculation on the first read only.
	ModeFR Mode = "fr"
	// ModeSWI uses Speculative Write-Invalidation plus First-Read.
	ModeSWI Mode = "swi"
)

// PredictorKind names a predictor variant.
type PredictorKind string

const (
	// Cosmos is the general message predictor baseline (Mukherjee & Hill).
	Cosmos PredictorKind = "Cosmos"
	// MSP is the request-only Memory Sharing Predictor.
	MSP PredictorKind = "MSP"
	// VMSP is the Vector MSP.
	VMSP PredictorKind = "VMSP"
)

// Kinds lists the predictor variants in the paper's comparison order.
func Kinds() []PredictorKind { return []PredictorKind{Cosmos, MSP, VMSP} }

// MaxDepth is the largest supported predictor history depth (the paper
// evaluates depths 1, 2, and 4). Every API that takes a depth accepts
// the range [1, MaxDepth]; tools can validate against it up front
// instead of discovering the limit mid-run.
const MaxDepth = core.MaxDepth

// kind returns the core predictor k names: core.Kind.String spells
// each kind's PredictorKind.
func (k PredictorKind) kind() (core.Kind, error) {
	for c := core.KindCosmos; c <= core.KindVMSP; c++ {
		if string(k) == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("specdsm: unknown predictor kind %q", k)
}

// PredictorConfig selects a predictor variant and history depth.
// Confidence > 0 enables an extension beyond the paper: speculation only
// acts on pattern entries whose 2-bit confidence counter has reached the
// threshold (accuracy measurement is unaffected).
type PredictorConfig struct {
	Kind       PredictorKind
	Depth      int
	Confidence int
}

// spec validates c's kind and depth and translates it into the machine's
// predictor spec: the one place a PredictorConfig is checked.
func (c PredictorConfig) spec() (machine.PredictorSpec, error) {
	k, err := c.Kind.kind()
	if err != nil {
		return machine.PredictorSpec{}, err
	}
	if c.Depth < 1 || c.Depth > core.MaxDepth {
		return machine.PredictorSpec{}, fmt.Errorf("specdsm: %s depth %d out of range [1,%d]", c.Kind, c.Depth, core.MaxDepth)
	}
	return machine.PredictorSpec{Kind: k, Depth: c.Depth, Confidence: c.Confidence}, nil
}

// WorkloadParams sizes a workload instantiation. Zero values select the
// defaults: 16 nodes, per-application iteration counts, scale 1.0, seed 1.
type WorkloadParams struct {
	Nodes      int
	Iterations int
	Scale      float64
	Seed       int64
}

// Workload is a generated multi-node program, ready to run. The program
// slices may be shared with other Workload values for the same
// (application, parameters) — generation is served from a process-wide
// cache — and are immutable: simulation only reads them, so one Workload
// can back any number of concurrent runs.
type Workload struct {
	Name     string
	Nodes    int
	programs []machine.Program
	// seed is the generation seed after the generators' default (0
	// means 1); CaptureTrace stamps it on the trace.
	seed int64
}

// genSeed is the seed a generator uses for WorkloadParams.Seed s.
func genSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// Ops returns the total operation count across all per-node programs.
func (w Workload) Ops() int {
	n := 0
	for _, p := range w.programs {
		n += len(p)
	}
	return n
}

// AppNames returns the seven benchmark names (Table 2).
func AppNames() []string { return workload.Names() }

// AppInfo describes one benchmark for reporting.
type AppInfo struct {
	Name            string
	Description     string
	PaperInput      string
	PaperIterations int
}

// AppInfos returns Table 2 metadata for all benchmarks.
func AppInfos() []AppInfo {
	var out []AppInfo
	for _, a := range workload.Apps() {
		out = append(out, AppInfo{a.Name, a.Description, a.PaperInput, a.PaperIterations})
	}
	return out
}

// AppWorkload instantiates one of the seven paper benchmarks.
func AppWorkload(name string, p WorkloadParams) (Workload, error) {
	app, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("specdsm: unknown application %q (have %v)", name, AppNames())
	}
	wp := workload.Params(p)
	if wp.Nodes == 0 {
		wp.Nodes = 16
	}
	if err := checkNodes(wp.Nodes); err != nil {
		return Workload{}, err
	}
	return Workload{Name: name, Nodes: wp.Nodes, programs: workload.Programs(app, wp), seed: genSeed(p.Seed)}, nil
}

// checkNodes rejects machine sizes the workload generators cannot build.
func checkNodes(n int) error {
	if n < 2 || n > mem.MaxNodes {
		return fmt.Errorf("specdsm: invalid node count %d (supported range [2,%d])", n, mem.MaxNodes)
	}
	return nil
}

// MicroPattern names a synthetic micro-workload for examples and tests.
type MicroPattern string

const (
	// PatternProducerConsumer is the paper's running example (Figures 2-4).
	PatternProducerConsumer MicroPattern = "producer-consumer"
	// PatternMigratory is read+write ownership migration along a chain.
	PatternMigratory MicroPattern = "migratory"
	// PatternStencil is near-neighbour boundary sharing.
	PatternStencil MicroPattern = "stencil"
)

// MicroWorkload instantiates a micro-pattern.
func MicroWorkload(pattern MicroPattern, p WorkloadParams) (Workload, error) {
	mp := workload.MicroParams{
		Nodes:      p.Nodes,
		Iterations: p.Iterations,
		Seed:       p.Seed,
	}
	if mp.Nodes == 0 {
		mp.Nodes = 4
	}
	var progs []machine.Program
	switch pattern {
	case PatternProducerConsumer:
		progs = workload.ProducerConsumer(mp)
	case PatternMigratory:
		progs = workload.MigratoryPattern(mp)
	case PatternStencil:
		progs = workload.StencilPattern(mp)
	default:
		return Workload{}, fmt.Errorf("specdsm: unknown micro pattern %q", pattern)
	}
	return Workload{Name: string(pattern), Nodes: mp.Nodes, programs: progs, seed: genSeed(p.Seed)}, nil
}

// MachineOptions configures the simulated DSM for one run.
type MachineOptions struct {
	// Mode selects Base-DSM, FR-DSM, or SWI-DSM. Empty means Base.
	Mode Mode
	// Observers attach passive predictors at every directory.
	Observers []PredictorConfig
	// Active overrides the speculation predictor (default: VMSP depth 1,
	// as in the paper's §7.4).
	Active *PredictorConfig
	// SpecUpgrades enables the migratory-sharing extension.
	SpecUpgrades bool
	// DisableChecks turns off the coherence checker (benchmarks).
	DisableChecks bool
	// NetworkFlight overrides the interconnect flight latency in cycles
	// (default 80, Table 1). Raising it raises the remote-to-local ratio:
	// the empirical analogue of Figure 6's rtl panel (NUMA-Q vs Mercury vs
	// Origin).
	NetworkFlight int
	// CacheCapacity bounds valid cache lines per node with LRU eviction
	// (0 = unbounded, the paper's §6 "remote cache large enough"
	// assumption). Lowering it reintroduces the capacity/conflict traffic
	// the paper deliberately excludes.
	CacheCapacity int
}

// PredictorResult reports one predictor's measurements over a run: the
// messages it tracked, predicted and predicted correctly, and the blocks
// and pattern-table entries it allocated. The paper's ratios are methods
// over these counts.
type PredictorResult struct {
	Kind      PredictorKind
	Depth     int
	Tracked   uint64
	Predicted uint64
	Correct   uint64
	Blocks    int
	Entries   int
}

func (p PredictorResult) stats() core.Stats {
	return core.Stats{Tracked: p.Tracked, Predicted: p.Predicted, Correct: p.Correct}
}

// Accuracy is Correct/Predicted (Figures 7-8).
func (p PredictorResult) Accuracy() float64 { return p.stats().Accuracy() }

// Coverage is Predicted/Tracked (Table 3).
func (p PredictorResult) Coverage() float64 { return p.stats().Coverage() }

// CorrectFraction is Correct/Tracked (Table 3, parenthesized).
func (p PredictorResult) CorrectFraction() float64 { return p.stats().CorrectFraction() }

// EntriesPerBlock is the average pattern-table entries per allocated
// block (Table 4 "pte").
func (p PredictorResult) EntriesPerBlock() float64 {
	return core.Census{Blocks: p.Blocks, Entries: p.Entries}.EntriesPerBlock()
}

// BytesPerBlock is the storage per allocated block by the paper's
// depth-one formulas (Table 4 "ovh"); it does not describe a deeper
// entry, which keys more symbols. It is 0 for an unknown Kind.
func (p PredictorResult) BytesPerBlock() float64 {
	k, err := p.Kind.kind()
	if err != nil {
		return 0
	}
	return core.BytesPerBlock(k, p.EntriesPerBlock())
}

// RunResult aggregates one simulation run.
type RunResult struct {
	Workload string
	Mode     Mode
	Nodes    int
	// Time, in processor cycles.
	Cycles            int64
	ComputeCycles     int64
	SyncCycles        int64
	RequestWaitCycles int64
	// Requests observed at the directories.
	Reads    uint64
	Writes   uint64
	Upgrades uint64
	// Speculation activity.
	SpecHits            uint64
	SpecReadsFR         uint64
	SpecReadsSWI        uint64
	SpecReadUnused      uint64
	UnreferencedSpec    uint64
	SpecDropped         uint64
	SWIRecalls          uint64
	SWIPremature        uint64
	SpecUpgrades        uint64
	SpecUpgradeMisfires uint64
	// Finite-cache mode.
	Evictions          uint64
	EvictionWritebacks uint64
	// NetMsgs counts interconnect messages sent (the traffic metric of
	// the node-scaling study).
	NetMsgs uint64
	// Predictors holds the predictor measurements in attachment order:
	// one per MachineOptions.Observers entry, then, in FR and SWI modes
	// only, the active predictor as the last entry.
	Predictors []PredictorResult
	Events     uint64
}

// WriteLike returns writes plus upgrades.
func (r *RunResult) WriteLike() uint64 { return r.Writes + r.Upgrades }

// RequestShare is the fraction of aggregate processor time spent waiting
// on coherence transactions.
func (r *RunResult) RequestShare() float64 {
	total := r.ComputeCycles + r.SyncCycles + r.RequestWaitCycles
	if total == 0 {
		return 0
	}
	return float64(r.RequestWaitCycles) / float64(total)
}

// buildConfig translates public options into a machine configuration.
func buildConfig(w Workload, opts MachineOptions) (machine.Config, Mode, error) {
	cfg := machine.Config{
		Nodes:                 w.Nodes,
		DisableCoherenceCheck: opts.DisableChecks,
		EnableSpecUpgrade:     opts.SpecUpgrades,
		CacheCapacity:         opts.CacheCapacity,
	}
	if opts.CacheCapacity < 0 {
		return cfg, "", fmt.Errorf("specdsm: negative cache capacity %d", opts.CacheCapacity)
	}
	if opts.NetworkFlight < 0 {
		return cfg, "", fmt.Errorf("specdsm: negative network flight latency %d", opts.NetworkFlight)
	}
	cfg.Flight = sim.Cycle(opts.NetworkFlight)
	for _, o := range opts.Observers {
		spec, err := o.spec()
		if err != nil {
			return cfg, "", err
		}
		cfg.Observers = append(cfg.Observers, spec)
	}

	mode := opts.Mode
	if mode == "" {
		mode = ModeBase
	}
	switch mode {
	case ModeBase:
		if opts.SpecUpgrades {
			return cfg, "", fmt.Errorf("specdsm: SpecUpgrades requires an active predictor mode")
		}
	case ModeFR:
		cfg.EnableFR = true
	case ModeSWI:
		cfg.EnableFR = true
		cfg.EnableSWI = true
	default:
		return cfg, "", fmt.Errorf("specdsm: unknown mode %q", mode)
	}
	if mode != ModeBase {
		active := PredictorConfig{Kind: VMSP, Depth: 1}
		if opts.Active != nil {
			active = *opts.Active
		}
		spec, err := active.spec()
		if err != nil {
			return cfg, "", err
		}
		cfg.Active = &spec
	}
	return cfg, mode, nil
}

// Run simulates the workload on a machine configured by opts.
func Run(w Workload, opts MachineOptions) (*RunResult, error) {
	return runInArena(machine.NewArena(), w, opts)
}

// runInArena is Run against a worker-local run arena: the simulated
// machine for the options' configuration is built once per arena and
// re-armed in place for every subsequent run, so a sweep worker pays
// machine construction once per distinct configuration instead of once
// per job. Results are identical to Run (the arena reset-equivalence
// tests pin this).
func runInArena(a *machine.Arena, w Workload, opts MachineOptions) (*RunResult, error) {
	if len(w.programs) == 0 {
		return nil, fmt.Errorf("specdsm: empty workload")
	}
	cfg, mode, err := buildConfig(w, opts)
	if err != nil {
		return nil, err
	}
	res, err := a.Run(cfg, w.programs)
	if err != nil {
		return nil, fmt.Errorf("specdsm: %s/%s: %w", w.Name, mode, err)
	}
	return convert(w, mode, res), nil
}

func convert(w Workload, mode Mode, res *machine.Result) *RunResult {
	out := &RunResult{
		Workload:            w.Name,
		Mode:                mode,
		Nodes:               w.Nodes,
		Cycles:              int64(res.Cycles),
		ComputeCycles:       int64(res.TotalCompute),
		SyncCycles:          int64(res.TotalSync),
		RequestWaitCycles:   int64(res.TotalReqWait),
		Reads:               res.Dir.Reads,
		Writes:              res.Dir.Writes,
		Upgrades:            res.Dir.Upgrades,
		SpecReadsFR:         res.Dir.SpecReadsFR,
		SpecReadsSWI:        res.Dir.SpecReadsSWI,
		SpecReadUnused:      res.Dir.SpecReadUnused,
		UnreferencedSpec:    res.UnreferencedSpec,
		SpecDropped:         res.Cache.SpecDropped,
		SWIRecalls:          res.Dir.SWIRecalls,
		SWIPremature:        res.Dir.SWIPremature,
		SpecUpgrades:        res.Dir.SpecUpgrades,
		SpecUpgradeMisfires: res.Dir.SpecUpgradeMisfires,
		Evictions:           res.Cache.Evictions,
		EvictionWritebacks:  res.Cache.EvictionWritebacks,
		NetMsgs:             res.Network.Sent,
		Events:              res.Events,
	}
	for _, p := range res.Procs {
		out.SpecHits += p.SpecHits
	}
	if len(res.Predictors) > 0 {
		out.Predictors = make([]PredictorResult, len(res.Predictors))
		for i, pr := range res.Predictors {
			out.Predictors[i] = predictorResult(pr)
		}
	}
	return out
}

// predictorResult reports what one predictor measured.
func predictorResult(pr machine.PredictorResult) PredictorResult {
	return PredictorResult{
		Kind:      PredictorKind(pr.Spec.Kind.String()),
		Depth:     pr.Spec.Depth,
		Tracked:   pr.Stats.Tracked,
		Predicted: pr.Stats.Predicted,
		Correct:   pr.Stats.Correct,
		Blocks:    pr.Census.Blocks,
		Entries:   pr.Census.Entries,
	}
}

// Predictor returns the result for one attached predictor configuration:
// the first match in Predictors, so an observer with the active
// predictor's kind and depth shadows it. Read the active predictor as
// the last entry of Predictors in FR and SWI modes.
func (r *RunResult) Predictor(kind PredictorKind, depth int) (PredictorResult, bool) {
	return findPredictor(r.Predictors, kind, depth)
}

// findPredictor returns the first of ps with the given kind and depth.
func findPredictor(ps []PredictorResult, kind PredictorKind, depth int) (PredictorResult, bool) {
	for _, p := range ps {
		if p.Kind == kind && p.Depth == depth {
			return p, true
		}
	}
	return PredictorResult{}, false
}
