package machine

import (
	"fmt"
	"slices"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
)

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpRead loads one coherence block.
	OpRead OpKind = iota
	// OpWrite stores to one coherence block.
	OpWrite
	// OpCompute advances the processor's clock without memory traffic.
	OpCompute
	// OpBarrier blocks until every processor reaches the same barrier op.
	OpBarrier
	// OpLock acquires a global queue lock (FIFO).
	OpLock
	// OpUnlock releases a lock held by this processor.
	OpUnlock
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCompute:
		return "compute"
	case OpBarrier:
		return "barrier"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	default:
		return "?"
	}
}

// Op is one program operation.
type Op struct {
	Kind   OpKind
	Addr   mem.BlockAddr // OpRead/OpWrite
	Cycles sim.Cycle     // OpCompute
	ID     int           // OpLock/OpUnlock lock identifier
}

// Read returns a load op.
func Read(addr mem.BlockAddr) Op { return Op{Kind: OpRead, Addr: addr} }

// Write returns a store op.
func Write(addr mem.BlockAddr) Op { return Op{Kind: OpWrite, Addr: addr} }

// Compute returns a compute-delay op.
func Compute(cycles sim.Cycle) Op { return Op{Kind: OpCompute, Cycles: cycles} }

// Barrier returns a global barrier op.
func Barrier() Op { return Op{Kind: OpBarrier} }

// Lock returns a lock-acquire op.
func Lock(id int) Op { return Op{Kind: OpLock, ID: id} }

// Unlock returns a lock-release op.
func Unlock(id int) Op { return Op{Kind: OpUnlock, ID: id} }

// Program is the op sequence executed by one processor.
type Program []Op

// PredictorSpec names a predictor variant to instantiate per node.
// Confidence > 0 gates the speculation surfaces on 2-bit per-entry
// confidence counters (an extension; 0 is the paper's behaviour).
type PredictorSpec struct {
	Kind       core.Kind
	Depth      int
	Confidence int
}

func (s PredictorSpec) String() string {
	if s.Confidence > 0 {
		return fmt.Sprintf("%v(d=%d,conf=%d)", s.Kind, s.Depth, s.Confidence)
	}
	return fmt.Sprintf("%v(d=%d)", s.Kind, s.Depth)
}

// build instantiates the predictor for a machine of the given node count
// (wide machines need vector-interning predictors; see core.NewSized).
func (s PredictorSpec) build(nodes int) *core.TwoLevel {
	p := core.NewSized(s.Kind, s.Depth, nodes)
	p.SetConfidenceThreshold(s.Confidence)
	return p
}

// Config describes one machine instantiation.
type Config struct {
	// Nodes is the machine size; the paper simulates 16.
	Nodes int
	// Flight is the network flight latency in cycles (0 = Table 1's 80);
	// the NI occupancies are network.SendOccupancy and RecvOccupancy.
	Flight sim.Cycle
	// Observers are passive predictor variants instantiated at every
	// node's directory; their stats are summed machine-wide.
	Observers []PredictorSpec
	// Active enables speculation with this predictor variant (the paper
	// uses VMSP depth 1).
	Active *PredictorSpec
	// EnableFR / EnableSWI select the speculative DSM flavor: FR-DSM sets
	// only EnableFR; SWI-DSM sets both (§7.4).
	EnableFR  bool
	EnableSWI bool
	// EnableSpecUpgrade turns on the migratory extension.
	EnableSpecUpgrade bool
	// CacheCapacity bounds valid cache lines per node (0 = unbounded,
	// the paper's assumption).
	CacheCapacity int
	// DisableCoherenceCheck turns the version checker off (benches).
	DisableCoherenceCheck bool
	// MaxEvents guards against runaway simulations (0 = default guard).
	MaxEvents uint64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Flight == 0 {
		c.Flight = 80
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 2_000_000_000
	}
	return c
}

// ProcStats is the per-processor time breakdown. Figure 9 reports two
// buckets: computation (Compute+Sync) and remote-request waiting (ReqWait).
// The processor is the one counter of access classes: every read and
// write it issues completes as exactly one of Hits, SpecHits, Locals and
// Remotes (the cache reports the class and keeps no count of its own).
type ProcStats struct {
	Compute  sim.Cycle // compute ops, cache hits, local memory accesses
	Sync     sim.Cycle // barrier and lock waiting
	ReqWait  sim.Cycle // coherence-transaction waiting
	Finish   sim.Cycle
	Hits     uint64
	SpecHits uint64
	Locals   uint64
	Remotes  uint64
}

// Result aggregates one run.
type Result struct {
	// Cycles is the makespan (last processor finish time).
	Cycles sim.Cycle
	Procs  []ProcStats
	// Summed time buckets across processors.
	TotalCompute sim.Cycle
	TotalSync    sim.Cycle
	TotalReqWait sim.Cycle
	// Machine-wide protocol counters.
	Dir   protocol.DirStats
	Cache protocol.CacheStats
	// Predictors holds each attached predictor's measurements in
	// attachment order: Config.Observers, then Config.Active when set.
	Predictors []PredictorResult
	// UnreferencedSpec counts speculative lines never referenced by the
	// end of the run (misspeculations not yet caught by invalidation).
	UnreferencedSpec uint64
	Network          network.Stats
	Events           uint64
}

// PredictorResult is what one attached predictor measured, summed
// across every node's instance of it.
type PredictorResult struct {
	Spec   PredictorSpec
	Stats  core.Stats
	Census core.Census
}

// Machine is one ready-to-run simulated CC-NUMA.
type Machine struct {
	cfg    Config
	kernel *sim.Kernel
	sys    *protocol.System
	// specs lists the attached predictors (Config.Observers, then
	// Config.Active) and preds their instances, [node][spec index].
	specs   []PredictorSpec
	preds   [][]*core.TwoLevel
	procs   []*proc
	barrier barrier
	locks   map[int]*lock
	running int
}

// New builds a machine from cfg. The machine keeps its own copy of the
// observer list and the active spec, so an Arena can match later
// configs against it whatever the caller does with its slices.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	cfg.Observers = slices.Clone(cfg.Observers)
	if cfg.Active != nil {
		active := *cfg.Active
		cfg.Active = &active
	}
	k := sim.NewKernel()
	m := &Machine{
		cfg:    cfg,
		kernel: k,
		locks:  make(map[int]*lock),
	}
	m.barrier.m = m
	m.specs = cfg.Observers
	if cfg.Active != nil {
		m.specs = append(slices.Clip(m.specs), *cfg.Active)
	}
	opts := make([]protocol.Options, cfg.Nodes)
	m.preds = make([][]*core.TwoLevel, cfg.Nodes)
	for i := range m.preds {
		preds := make([]*core.TwoLevel, len(m.specs))
		var obs []core.Predictor
		for j, spec := range m.specs {
			preds[j] = spec.build(cfg.Nodes)
			if j < len(cfg.Observers) {
				obs = append(obs, preds[j])
			}
		}
		m.preds[i] = preds
		opts[i] = protocol.Options{
			Observers:         obs,
			EnableFR:          cfg.EnableFR,
			EnableSWI:         cfg.EnableSWI,
			EnableSpecUpgrade: cfg.EnableSpecUpgrade,
			CacheCapacity:     cfg.CacheCapacity,
		}
		if cfg.Active != nil {
			opts[i].Active = preds[len(obs)]
		}
	}
	m.sys = protocol.NewSystem(k, cfg.Nodes, cfg.Flight, opts)
	if cfg.DisableCoherenceCheck {
		m.sys.SetCoherenceChecking(false)
	}
	return m
}

// System exposes the underlying protocol system (tests, examples).
func (m *Machine) System() *protocol.System { return m.sys }

// Kernel exposes the simulation clock (e.g., for trace recorders).
func (m *Machine) Kernel() *sim.Kernel { return m.kernel }

// AttachObserver adds one pre-instantiated passive observer to every
// node's directory, seeing the machine-wide directory message stream in
// processing order. Must be called before Run. The observer belongs to
// the caller: Reset leaves it alone and Result.Predictors covers only
// Config's predictors. Each directory passes its own dense entry index
// as the block index (see core.Predictor), and the directories' indices
// overlap, so a shared observer must key its state by block address and
// ignore the index, as trace.Recorder does; a core.TwoLevel cannot be
// attached here.
func (m *Machine) AttachObserver(p core.Predictor) {
	for i := 0; i < m.cfg.Nodes; i++ {
		m.sys.Node(mem.NodeID(i)).AddObserver(p)
	}
}

// Reset re-arms a machine that has completed a run so it can Run again:
// the kernel clock, network, protocol system, predictors, barriers, and
// locks all return to their just-constructed state while retaining their
// storage (tables, dense slices, queues, event pools). A reset machine
// is observably equivalent to a freshly built one with the same Config —
// the contract pinned by the arena reset-equivalence tests — which is
// what lets Arena replay many workloads through one machine without
// paying construction again. Call only after Run has returned.
func (m *Machine) Reset() {
	m.kernel.Reset()
	m.sys.Reset()
	for _, preds := range m.preds {
		for _, p := range preds {
			p.Reset()
		}
	}
	m.barrier.waiters = m.barrier.waiters[:0]
	for _, l := range m.locks {
		l.held = false
		l.owner = 0
		l.queue = l.queue[:0]
	}
	m.running = 0
}

// Run executes one program per node to completion and returns the
// aggregated result. It errors if programs deadlock (unbalanced barriers,
// abandoned locks) or the event guard trips. Run may be called again on
// the same machine after Reset; processors are then re-armed in place
// rather than rebuilt.
func (m *Machine) Run(programs []Program) (*Result, error) {
	if len(programs) != m.cfg.Nodes {
		return nil, fmt.Errorf("machine: %d programs for %d nodes", len(programs), m.cfg.Nodes)
	}
	if m.procs == nil {
		m.procs = make([]*proc, m.cfg.Nodes)
		for i := range m.procs {
			m.procs[i] = newProc(m, mem.NodeID(i), nil)
		}
	}
	for i := range programs {
		p := m.procs[i]
		p.rearm(programs[i])
		m.running++
		m.kernel.At(0, p.stepFn)
	}
	// Only a run its budget cut short has events left; one that ends in
	// exactly MaxEvents events completed.
	executed := m.kernel.Run(m.cfg.MaxEvents)
	if m.kernel.Pending() > 0 {
		return nil, fmt.Errorf("machine: event guard tripped at %d events", executed)
	}
	for _, p := range m.procs {
		if !p.finished {
			return nil, fmt.Errorf("machine: processor %d deadlocked at pc=%d (%v)",
				p.id, p.pc, opAt(p.prog, p.pc))
		}
	}
	if v := m.sys.Violations(); len(v) != 0 {
		return nil, fmt.Errorf("machine: coherence violations: %v", v)
	}
	if err := m.sys.CheckQuiescent(); err != nil {
		return nil, err
	}
	if !m.cfg.DisableCoherenceCheck {
		if err := m.sys.AuditConsistency(); err != nil {
			return nil, err
		}
	}
	return m.collect(executed), nil
}

func opAt(prog Program, pc int) any {
	if pc-1 >= 0 && pc-1 < len(prog) {
		return prog[pc-1]
	}
	return "end"
}

func (m *Machine) collect(events uint64) *Result {
	r := &Result{
		Procs:      make([]ProcStats, len(m.procs)),
		Predictors: make([]PredictorResult, len(m.specs)),
		Network:    m.sys.NetworkStats(),
		Events:     events,
	}
	for j, spec := range m.specs {
		r.Predictors[j].Spec = spec
	}
	for i, p := range m.procs {
		r.Procs[i] = ProcStats{
			Compute:  p.compute,
			Sync:     p.sync,
			ReqWait:  p.reqWait,
			Finish:   p.finishTime,
			Hits:     p.hits,
			SpecHits: p.specHits,
			Locals:   p.locals,
			Remotes:  p.remotes,
		}
		r.TotalCompute += p.compute
		r.TotalSync += p.sync
		r.TotalReqWait += p.reqWait
		if p.finishTime > r.Cycles {
			r.Cycles = p.finishTime
		}
	}
	for i := 0; i < m.cfg.Nodes; i++ {
		node := m.sys.Node(mem.NodeID(i))
		addDirStats(&r.Dir, node.DirStats())
		addCacheStats(&r.Cache, node.CacheStats())
		r.UnreferencedSpec += node.SweepUnreferencedSpec()
		for j, p := range m.preds[i] {
			pr := &r.Predictors[j]
			pr.Stats = addStats(pr.Stats, p.Stats())
			pr.Census = addCensus(pr.Census, p.Census())
		}
	}
	return r
}

func addStats(a, b core.Stats) core.Stats {
	a.Tracked += b.Tracked
	a.Predicted += b.Predicted
	a.Correct += b.Correct
	return a
}

func addCensus(a, b core.Census) core.Census {
	a.Blocks += b.Blocks
	a.Entries += b.Entries
	return a
}

func addDirStats(dst *protocol.DirStats, s protocol.DirStats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.Upgrades += s.Upgrades
	dst.InvalsSent += s.InvalsSent
	dst.AcksReceived += s.AcksReceived
	dst.UpgradeGrants += s.UpgradeGrants
	dst.SpecReadsFR += s.SpecReadsFR
	dst.SpecReadsSWI += s.SpecReadsSWI
	dst.SpecReadUnused += s.SpecReadUnused
	dst.SWIRecalls += s.SWIRecalls
	dst.SWIPremature += s.SWIPremature
	dst.SpecUpgrades += s.SpecUpgrades
	dst.SpecUpgradeMisfires += s.SpecUpgradeMisfires
}

func addCacheStats(dst *protocol.CacheStats, s protocol.CacheStats) {
	dst.SpecDropped += s.SpecDropped
	dst.Evictions += s.Evictions
	dst.EvictionWritebacks += s.EvictionWritebacks
	dst.SpecDeclinedFull += s.SpecDeclinedFull
}
