package machine

import (
	"fmt"
	"slices"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
	"specdsm/internal/trace"
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

// PredictorSpec names a predictor variant: an observer, built once per
// machine to score its directory stream, or the active predictor, built
// once per node. Confidence > 0 gates the speculation surfaces on 2-bit
// per-entry confidence counters (an extension; 0 is the paper's
// behaviour).
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
	// Observers are passive predictor variants. When any are set, the
	// directories record their incoming messages as one machine-wide
	// stream, which the machine scores as it runs through one predictor
	// per observer (see Score).
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

// PredictorResult is what one attached predictor measured: an
// observer over the whole stream, the active predictor summed across
// every node's instance of it.
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
	// observers score stream as the run goes (see run), and keep, when
	// set, receives a copy of it (Record). active holds each node's
	// active predictor (none without Config.Active).
	observers observers
	stream    trace.Trace
	keep      *trace.Trace
	active    []*core.TwoLevel
	procs     []*proc
	barrier   barrier
	locks     map[int]*lock
	running   int
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
		cfg:       cfg,
		kernel:    k,
		locks:     make(map[int]*lock),
		observers: newObservers(cfg.Observers, cfg.Nodes, cfg.Nodes), // each sees every directory
	}
	m.barrier.m = m
	opts := make([]protocol.Options, cfg.Nodes)
	for i := range opts {
		opts[i] = protocol.Options{
			EnableFR:          cfg.EnableFR,
			EnableSWI:         cfg.EnableSWI,
			EnableSpecUpgrade: cfg.EnableSpecUpgrade,
			CacheCapacity:     cfg.CacheCapacity,
		}
		if cfg.Active != nil {
			opts[i].Active = cfg.Active.build(cfg.Nodes)
			m.active = append(m.active, opts[i].Active)
		}
	}
	m.sys = protocol.NewSystem(k, cfg.Nodes, cfg.Flight, opts)
	if cfg.DisableCoherenceCheck {
		m.sys.SetCoherenceChecking(false)
	}
	if len(cfg.Observers) > 0 {
		m.sys.Record(&m.stream)
	}
	return m
}

// System exposes the underlying protocol system (tests, examples).
func (m *Machine) System() *protocol.System { return m.sys }

// Record makes the machine append every message its directories
// process from now on to t.Events, in processing order: the stream its
// observers score, whole. t belongs to the caller; Reset leaves it
// alone.
func (m *Machine) Record(t *trace.Trace) {
	m.keep = t
	m.sys.Record(&m.stream)
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
	m.stream.Reset()
	for _, p := range m.observers.preds {
		p.Reset()
	}
	for _, p := range m.active {
		p.Reset()
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
	executed := m.run()
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

// streamSlice is how many kernel events run between two scorings of the
// stream: at most one directory message each, so the stream stays short
// enough to replay from cache.
const streamSlice = 8192

// run runs the kernel until its queue drains or MaxEvents events have
// run, and returns how many ran. Every streamSlice events the observers
// score the stream recorded so far, which is copied to the kept trace,
// if any, and cut, keeping its block numbering: the stream's storage
// does not grow with the run.
func (m *Machine) run() uint64 {
	var n uint64
	for {
		n += m.kernel.Run(min(streamSlice, m.cfg.MaxEvents-n))
		trace.Replay(&m.stream, m.observers.each...)
		if m.keep != nil {
			m.keep.Events = append(m.keep.Events, m.stream.Events...)
		}
		m.stream.Events = m.stream.Events[:0]
		if m.kernel.Pending() == 0 || n == m.cfg.MaxEvents {
			return n
		}
	}
}

func opAt(prog Program, pc int) any {
	if pc-1 >= 0 && pc-1 < len(prog) {
		return prog[pc-1]
	}
	return "end"
}

func (m *Machine) collect(events uint64) *Result {
	// One entry per observer, then one for the active predictor.
	npred := len(m.cfg.Observers) + min(len(m.active), 1)
	r := &Result{
		Procs:      make([]ProcStats, len(m.procs)),
		Predictors: make([]PredictorResult, npred),
		Network:    m.sys.NetworkStats(),
		Events:     events,
	}
	m.observers.results(r.Predictors)
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
	}
	if m.cfg.Active != nil {
		pr := &r.Predictors[npred-1]
		pr.Spec = *m.cfg.Active
		for _, p := range m.active {
			s, c := p.Stats(), p.Census()
			pr.Stats.Tracked += s.Tracked
			pr.Stats.Predicted += s.Predicted
			pr.Stats.Correct += s.Correct
			pr.Census.Blocks += c.Blocks
			pr.Census.Entries += c.Entries
		}
	}
	return r
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

// Score replays a recorded directory stream through one predictor per
// spec, each built for the stream's machine size, and returns their
// measurements in spec order. It is the one scoring path of passive
// observers: a machine with observers scores its own stream the same
// way as it runs.
func Score(t *trace.Trace, specs []PredictorSpec) []PredictorResult {
	o := newObservers(specs, t.Nodes, 1)
	trace.Replay(t, o.each...)
	out := make([]PredictorResult, len(specs))
	o.results(out)
	return out
}

// observers holds one predictor per observer spec. A predictor keeps its
// state per block, so one instance fed the machine-wide stream measures
// what one instance per directory would have measured, summed.
type observers struct {
	specs []PredictorSpec
	preds []*core.TwoLevel
	each  []core.Predictor // preds, as trace.Replay takes them
}

// newObservers builds the predictors for a machine of nodes nodes, each
// reserving room for the working set of that many directories.
func newObservers(specs []PredictorSpec, nodes, directories int) observers {
	o := observers{specs: specs}
	for _, s := range specs {
		p := s.build(nodes)
		p.Reserve(directories)
		o.preds = append(o.preds, p)
		o.each = append(o.each, p)
	}
	return o
}

// results writes each observer's measurements to the head of out.
func (o observers) results(out []PredictorResult) {
	for i, p := range o.preds {
		out[i] = PredictorResult{Spec: o.specs[i], Stats: p.Stats(), Census: p.Census()}
	}
}
