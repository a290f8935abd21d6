package network

import (
	"fmt"

	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// SendOccupancy and RecvOccupancy are how long a message occupies the
// sender and the receiver NI, in processor cycles. With Table 1's 80-cycle
// flight they calibrate a clean two-hop remote miss to 418 cycles (see
// internal/machine for the full latency budget).
const (
	SendOccupancy sim.Cycle = 20
	RecvOccupancy sim.Cycle = 20
)

// Handler consumes a delivered message at a node.
type Handler[T any] func(src mem.NodeID, payload T)

// inflight carries one message through its arrival and delivery events.
// Carriers are pooled per network; arrive/deliver are method-value
// closures created once per carrier and reused for its whole lifetime.
type inflight[T any] struct {
	nw       *Network[T]
	src, dst mem.NodeID
	payload  T
	arrive   func()
	deliver  func()
}

func (m *inflight[T]) onArrive() {
	nw := m.nw
	begin := nw.kernel.Now()
	if nw.recvFree[m.dst] > begin {
		nw.recvQueueCycles += nw.recvFree[m.dst] - begin
		begin = nw.recvFree[m.dst]
	}
	ready := begin + RecvOccupancy
	nw.recvFree[m.dst] = ready
	nw.kernel.At(ready, m.deliver)
}

func (m *inflight[T]) onDeliver() {
	nw := m.nw
	h := nw.handlers[m.dst]
	if h == nil {
		panic(fmt.Sprintf("network: no handler for node %d", m.dst))
	}
	src, payload := m.src, m.payload
	var zero T
	m.payload = zero
	nw.pool.Put(m)
	h(src, payload)
}

// Network connects n nodes through the simulated fabric.
type Network[T any] struct {
	flight   sim.Cycle // switch traversal time for any src→dst pair
	kernel   *sim.Kernel
	handlers []Handler[T]
	sendFree []sim.Cycle // next cycle each sender NI is free
	recvFree []sim.Cycle // next cycle each receiver NI is free
	pool     sim.FreeList[inflight[T]]

	// Stats
	sent uint64
	// sendQueueCycles accumulates cycles messages spent waiting for a
	// busy sender NI (a contention measure).
	sendQueueCycles sim.Cycle
	recvQueueCycles sim.Cycle
}

// New creates a network for nodes 0..n-1 on the given kernel, with the
// given flight latency in processor cycles.
func New[T any](k *sim.Kernel, n int, flight sim.Cycle) *Network[T] {
	if n <= 0 || n > mem.MaxNodes {
		panic(fmt.Sprintf("network: invalid node count %d", n))
	}
	return &Network[T]{
		flight:   flight,
		kernel:   k,
		handlers: make([]Handler[T], n),
		sendFree: make([]sim.Cycle, n),
		recvFree: make([]sim.Cycle, n),
	}
}

// Nodes returns the number of attached nodes.
func (nw *Network[T]) Nodes() int { return len(nw.handlers) }

// SetHandler registers the message handler for node id. Must be called for
// every node before any message addressed to it is delivered.
func (nw *Network[T]) SetHandler(id mem.NodeID, h Handler[T]) {
	nw.handlers[id] = h
}

// get returns a carrier from the pool, creating (and binding its event
// closures for) a new one only when the pool is empty.
func (nw *Network[T]) get(src, dst mem.NodeID, payload T) *inflight[T] {
	m, ok := nw.pool.Get()
	if !ok {
		m = &inflight[T]{nw: nw}
		m.arrive = m.onArrive
		m.deliver = m.onDeliver
	}
	m.src, m.dst, m.payload = src, dst, payload
	return m
}

// Send transmits payload from src to dst, modeling sender NI occupancy,
// flight latency, and receiver NI occupancy. Delivery invokes dst's
// handler. Sending to self is allowed (some protocol replies are local)
// and still pays NI costs, modeling the loopback through the DSM board.
func (nw *Network[T]) Send(src, dst mem.NodeID, payload T) {
	start := nw.kernel.Now()
	if nw.sendFree[int(src)] > start {
		nw.sendQueueCycles += nw.sendFree[int(src)] - start
		start = nw.sendFree[int(src)]
	}
	done := start + SendOccupancy
	nw.sendFree[int(src)] = done
	nw.sent++

	m := nw.get(src, dst, payload)
	// Occupancy + flight are fixed small latencies chosen to fit the
	// kernel's near wheel (sim.WheelSpan covers every flight this repo
	// sweeps), so arrival scheduling is O(1); only a deep send-queue
	// backlog can push an arrival out to the overflow heap.
	nw.kernel.At(done+nw.flight, m.arrive)
}

// DeliverLocal hands payload to dst's handler after delay, bypassing the
// NI contention model and the network counters — the node-internal hop
// between co-located controllers. It exists here so node-internal traffic
// shares the pooled carrier path.
func (nw *Network[T]) DeliverLocal(src, dst mem.NodeID, delay sim.Cycle, payload T) {
	m := nw.get(src, dst, payload)
	// The local hop is a fixed small latency (Table 1's 12 cycles), so
	// this schedules on the kernel's near wheel in O(1) — zero delay goes
	// straight to the same-cycle dispatch ring.
	nw.kernel.After(delay, m.deliver)
}

// Reset re-arms the network for a fresh run on a reset kernel: NI
// occupancy horizons return to cycle 0 and the counters clear. Handlers
// and the carrier pool are retained (carriers already hold zeroed
// payloads when pooled), so a reused network reaches steady state
// without reallocating. Must not be called with messages in flight.
func (nw *Network[T]) Reset() {
	clear(nw.sendFree)
	clear(nw.recvFree)
	nw.sent = 0
	nw.sendQueueCycles = 0
	nw.recvQueueCycles = 0
}

// Stats reports message and contention counters. Sent counts messages
// that entered through Send; a completed run has delivered every one.
type Stats struct {
	Sent            uint64
	SendQueueCycles sim.Cycle
	RecvQueueCycles sim.Cycle
}

// Stats returns a snapshot of the network counters.
func (nw *Network[T]) Stats() Stats {
	return Stats{
		Sent:            nw.sent,
		SendQueueCycles: nw.sendQueueCycles,
		RecvQueueCycles: nw.recvQueueCycles,
	}
}
