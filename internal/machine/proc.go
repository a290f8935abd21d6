package machine

import (
	"fmt"

	"specdsm/internal/mem"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
)

// Synchronization latencies of the abstract barrier and queue lock, in
// processor cycles.
const (
	// barrierExit is the release latency after the last arrival: one
	// network traversal plus dispatch.
	barrierExit sim.Cycle = 140
	// lockTransfer is the remote hand-off latency of the queue lock.
	lockTransfer sim.Cycle = 300
)

// proc is one in-order processor: it executes its program sequentially,
// blocking on every memory access until completion (the paper's simulated
// processors stall on remote accesses; speculation's benefit is turning
// those stalls into local hits).
type proc struct {
	m    *Machine
	id   mem.NodeID
	prog Program
	pc   int

	compute  sim.Cycle
	sync     sim.Cycle
	reqWait  sim.Cycle
	accesses uint64
	hits     uint64
	specHits uint64
	locals   uint64
	remotes  uint64

	finished   bool
	finishTime sim.Cycle
	waitStart  sim.Cycle // barrier/lock arrival time

	// stepFn and accessDone are method values bound once at construction:
	// a method-value expression like p.step allocates a closure at every
	// evaluation, and step/access completion run once per program op.
	stepFn     func()
	accessDone func(protocol.AccessOutcome)
}

// newProc builds a processor with its event callbacks pre-bound.
func newProc(m *Machine, id mem.NodeID, prog Program) *proc {
	p := &proc{m: m, id: id, prog: prog}
	p.stepFn = p.step
	p.accessDone = p.onAccessDone
	return p
}

// rearm points the processor at a new program and zeroes all execution
// state, leaving the pre-bound callbacks in place. A re-armed processor
// behaves identically to a freshly constructed one.
func (p *proc) rearm(prog Program) {
	p.prog = prog
	p.pc = 0
	p.compute, p.sync, p.reqWait = 0, 0, 0
	p.accesses, p.hits, p.specHits, p.locals, p.remotes = 0, 0, 0, 0, 0
	p.finished = false
	p.finishTime = 0
	p.waitStart = 0
}

func (p *proc) step() {
	if p.pc >= len(p.prog) {
		p.finished = true
		p.finishTime = p.m.kernel.Now()
		p.m.running--
		// A processor finishing can satisfy a barrier among the remaining
		// runners (workloads where epilogues differ in barrier counts).
		p.m.recheckBarriers()
		return
	}
	op := p.prog[p.pc]
	p.pc++
	switch op.Kind {
	case OpCompute:
		p.compute += op.Cycles
		p.m.kernel.After(op.Cycles, p.stepFn)
	case OpRead, OpWrite:
		p.accesses++
		p.m.sys.Node(p.id).Access(op.Kind == OpWrite, op.Addr, p.accessDone)
	case OpBarrier:
		p.waitStart = p.m.kernel.Now()
		p.m.barrier(op.ID).arrive(p)
	case OpLock:
		p.waitStart = p.m.kernel.Now()
		p.m.lock(op.ID).acquire(p)
	case OpUnlock:
		p.m.lock(op.ID).release(p)
		p.step()
	default:
		panic(fmt.Sprintf("machine: unknown op kind %v", op.Kind))
	}
}

// onAccessDone classifies a completed memory access and resumes the
// program.
func (p *proc) onAccessDone(out protocol.AccessOutcome) {
	switch out.Class {
	case protocol.ClassHit:
		p.hits++
		p.compute += out.Latency
	case protocol.ClassSpecHit:
		p.specHits++
		p.compute += out.Latency
	case protocol.ClassLocal:
		p.locals++
		p.compute += out.Latency
	case protocol.ClassProtocol:
		p.remotes++
		p.reqWait += out.Latency
	}
	p.step()
}

// barrier is a centralized all-processor barrier. Waiting time counts as
// synchronization (folded into Figure 9's computation bucket, per the
// paper's definition).
type barrier struct {
	m       *Machine
	waiters []*proc
}

func (m *Machine) barrier(id int) *barrier {
	b := m.barriers[id]
	if b == nil {
		b = &barrier{m: m}
		m.barriers[id] = b
	}
	return b
}

func (b *barrier) arrive(p *proc) {
	b.waiters = append(b.waiters, p)
	b.tryRelease()
}

func (b *barrier) tryRelease() {
	if len(b.waiters) == 0 || len(b.waiters) < b.m.running {
		return
	}
	now := b.m.kernel.Now()
	ws := b.waiters
	b.waiters = nil
	for _, w := range ws {
		w.sync += now - w.waitStart
		b.m.kernel.After(barrierExit, w.stepFn)
	}
}

func (m *Machine) recheckBarriers() {
	for _, b := range m.barriers {
		b.tryRelease()
	}
}

// lock is an abstract FIFO queue lock with a fixed hand-off latency,
// modeling a contended remote lock without routing it through the
// coherence protocol.
type lock struct {
	m     *Machine
	held  bool
	owner mem.NodeID
	queue []*proc
}

func (m *Machine) lock(id int) *lock {
	l := m.locks[id]
	if l == nil {
		l = &lock{m: m}
		m.locks[id] = l
	}
	return l
}

func (l *lock) acquire(p *proc) {
	if !l.held {
		l.held = true
		l.owner = p.id
		l.m.kernel.After(lockTransfer, p.stepFn)
		return
	}
	l.queue = append(l.queue, p)
}

func (l *lock) release(p *proc) {
	if !l.held || l.owner != p.id {
		panic(fmt.Sprintf("machine: processor %d releasing lock it does not hold", p.id))
	}
	if len(l.queue) == 0 {
		l.held = false
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	l.owner = next.id
	now := l.m.kernel.Now()
	next.sync += now - next.waitStart
	l.m.kernel.After(lockTransfer, next.stepFn)
}
