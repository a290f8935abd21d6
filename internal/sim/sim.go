package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle int64

// Near-wheel geometry. WheelSpan cycles from the current one are covered
// by per-cycle buckets; everything further out waits in the overflow
// heap until the clock advances to within WheelSpan of it.
const (
	// WheelSpan is the number of cycles the near wheel covers, starting
	// at the current cycle. It is sized so every fixed model latency in
	// internal/protocol, internal/network, and internal/machine (hit 1,
	// NI occupancy 20, bus 25, directory 24, memory 104, flight 80 — and
	// the RTL sweep's slowest 320-cycle interconnect, barrier exit 140,
	// lock transfer 300) schedules in O(1) on the wheel; only contention
	// backlogs pile delays past it.
	WheelSpan = 1024

	wheelMask  = WheelSpan - 1
	wheelWords = WheelSpan / 64
)

// wheelNode is one queued event in the near wheel: an intrusive
// singly-linked list cell in the kernel's pooled node arena. Nodes carry
// no timestamp — a bucket holds events of exactly one cycle (see fifo) —
// and no sequence number — FIFO bucket order is insertion order.
type wheelNode struct {
	fn   func()
	next int32 // arena index of the next node; 0 terminates
}

// fifo is a bucket's (or the dispatch ring's) intrusive list: arena
// indices of its first and last node, 0 when empty (arena index 0 is a
// reserved sentinel). All events on one fifo share a single cycle: the
// kernel keeps every bucketed event within [now, now+WheelSpan), and two
// distinct times in a WheelSpan-wide window cannot map to the same
// bucket, so appending preserves the global (time, insertion) order.
type fifo struct {
	head, tail int32
}

// Kernel is the event-driven simulation core. The zero value is usable and
// starts at cycle 0; NewKernel is the conventional constructor.
//
// The queue is a hierarchical time wheel: events within WheelSpan cycles
// of now sit in per-cycle FIFO buckets (O(1) schedule and dispatch),
// events at exactly the current cycle go straight onto the dispatch ring
// (cur), and far-future events wait in a 4-ary overflow heap from which
// they are promoted — in (time, insertion-seq) order — as the clock
// advances. Dispatch order is exactly (time, insertion-seq), bit-identical
// to the test-only ReferenceKernel's heap order; the differential tests
// pin this.
type Kernel struct {
	now     Cycle
	seq     uint64
	stopped bool
	// executed counts dispatched events, for statistics and runaway guards.
	executed uint64

	// Near wheel. nodes is the pooled node arena (index 0 reserved so 0
	// can mean "nil"); freeHead chains recycled nodes; occ is the bucket
	// occupancy bitmap scanned to find the next busy cycle; near counts
	// events in the buckets plus the dispatch ring; limit = now + WheelSpan
	// is the wheel/overflow boundary invariant. buckets and occ are inline
	// arrays, not slices: a kernel costs exactly one arena allocation
	// beyond its own struct, which matters to benchmarks that build a
	// machine per iteration.
	nodes    []wheelNode
	freeHead int32
	buckets  [WheelSpan]fifo
	occ      [wheelWords]uint64
	near     int
	limit    Cycle

	// cur is the same-cycle direct-dispatch ring: events at exactly the
	// current cycle, dispatched before the wheel is consulted. Zero-delay
	// work (After(0), At(now) from inside a handler) is appended here
	// directly, bypassing bucket indexing and the occupancy bitmap.
	cur fifo

	// one is the sparse-case register: a kernel whose entire pending set
	// is a single event keeps it here, in two hot fields, instead of
	// paying the wheel's bucket/bitmap/arena traffic. Request/response
	// ping-pong — a directory waiting on exactly one ack, a processor
	// stalled on one fill — runs the queue at 0↔1 population for long
	// stretches, and this register keeps that case as cheap as the old
	// tiny heap was. Invariant: oneValid implies near == 0 and an empty
	// overflow; a second schedule demotes the register into the wheel
	// (preserving its original seq) before inserting.
	one      event
	oneValid bool

	// overflow holds events at or beyond limit.
	overflow eventHeap
}

// NewKernel returns a kernel with the clock at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Executed returns the number of events dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int {
	n := k.near + k.overflow.len()
	if k.oneValid {
		n++
	}
	return n
}

// ensureInit lazily allocates the node arena so the zero-value Kernel
// stays usable.
func (k *Kernel) ensureInit() {
	if k.nodes == nil {
		// Index 0 is the nil sentinel. Starting the arena at a realistic
		// standing population skips most of the append-doubling a machine
		// pays while warming up.
		k.nodes = make([]wheelNode, 1, 1024)
		k.limit = k.now + WheelSpan
	}
}

// allocNode takes a node from the free list, growing the arena only when
// it is empty (steady state recycles; the arena tracks peak population).
func (k *Kernel) allocNode(fn func()) int32 {
	if i := k.freeHead; i != 0 {
		k.freeHead = k.nodes[i].next
		k.nodes[i] = wheelNode{fn: fn}
		return i
	}
	k.nodes = append(k.nodes, wheelNode{fn: fn})
	return int32(len(k.nodes) - 1)
}

// push appends fn to f's tail.
func (k *Kernel) push(f *fifo, fn func()) {
	n := k.allocNode(fn)
	if f.head == 0 {
		f.head = n
	} else {
		k.nodes[f.tail].next = n
	}
	f.tail = n
}

// bucketPush appends fn to the bucket for cycle at (which must lie in
// [now, limit)), marking the bucket occupied.
func (k *Kernel) bucketPush(at Cycle, fn func()) {
	idx := int(at) & wheelMask
	b := &k.buckets[idx]
	if b.head == 0 {
		k.occ[idx>>6] |= 1 << uint(idx&63)
	}
	k.push(b, fn)
}

// At schedules fn to run at absolute cycle at. Scheduling in the past
// panics: it always indicates a model bug. The classification here is the
// whole scheduling cost model: the sole pending event sits in a register,
// same-cycle work goes straight onto the dispatch ring, anything within
// WheelSpan cycles is an O(1) bucket append, and only far-future events
// pay the heap's O(log n).
func (k *Kernel) At(at Cycle, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", at, k.now))
	}
	k.ensureInit()
	k.seq++
	if k.near == 0 && k.overflow.len() == 0 {
		if !k.oneValid {
			k.one = event{at: at, seq: k.seq, fn: fn}
			k.oneValid = true
			return
		}
		// Second event: demote the register into the wheel first. Its seq
		// is smaller, so in a shared bucket it lands ahead — insertion
		// order preserved.
		e := k.one
		k.one = event{}
		k.oneValid = false
		k.place(e)
	}
	k.place(event{at: at, seq: k.seq, fn: fn})
}

// place routes one event into the ring, the wheel, or the overflow heap.
func (k *Kernel) place(e event) {
	switch {
	case e.at == k.now:
		k.near++
		k.push(&k.cur, e.fn)
	case e.at < k.limit:
		k.near++
		k.bucketPush(e.at, e.fn)
	default:
		k.overflow.push(e)
	}
}

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Cycle, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.At(k.now+delay, fn)
}

// Stop makes Run return after the currently dispatching event completes.
func (k *Kernel) Stop() { k.stopped = true }

// scanFrom returns the distance (1..WheelSpan-1) from bucket idx to the
// next occupied bucket, scanning the occupancy bitmap word-wise with
// wraparound. Call only with at least one occupied bucket other than idx.
func (k *Kernel) scanFrom(idx int) int {
	w := idx >> 6
	// Bits strictly above idx in its word (a shift count of 64 yields 0).
	word := k.occ[w] & (^uint64(0) << (uint(idx&63) + 1))
	for n := 0; n <= wheelWords; n++ {
		if word != 0 {
			abs := w<<6 + bits.TrailingZeros64(word)
			return (abs - idx) & wheelMask
		}
		w = (w + 1) & (wheelWords - 1)
		word = k.occ[w]
	}
	panic("sim: near events recorded but no occupied bucket")
}

// advanceTo moves the clock to t and promotes every overflow event that
// the new horizon reaches into the wheel. Promotion pops the heap in
// (time, seq) order, so events landing in one bucket arrive in insertion
// order — and any event scheduled directly into that bucket afterwards
// carries a larger seq, so FIFO bucket order stays the global total
// order. (Overflow events at cycle t itself — possible only when the
// wheel was empty and the clock jumps to the heap top — go straight onto
// the dispatch ring.)
func (k *Kernel) advanceTo(t Cycle) {
	if t < k.now {
		panic("sim: time went backwards")
	}
	k.now = t
	k.limit = t + WheelSpan
	for k.overflow.len() > 0 && k.overflow.top().at < k.limit {
		e := k.overflow.pop()
		k.near++
		if e.at == t {
			k.push(&k.cur, e.fn)
		} else {
			k.bucketPush(e.at, e.fn)
		}
	}
}

// splice moves bucket idx's whole chain onto the (empty) dispatch ring.
func (k *Kernel) splice(idx int) {
	k.cur = k.buckets[idx]
	k.buckets[idx] = fifo{}
	k.occ[idx>>6] &^= 1 << uint(idx&63)
}

// refill makes the dispatch ring non-empty, advancing the clock to the
// next busy cycle; false when no events remain anywhere.
func (k *Kernel) refill() bool {
	if k.near > 0 {
		idx := int(k.now) & wheelMask
		if k.occ[idx>>6]&(1<<uint(idx&63)) == 0 {
			d := k.scanFrom(idx)
			k.advanceTo(k.now + Cycle(d))
			idx = (idx + d) & wheelMask
		}
		k.splice(idx)
		return true
	}
	if k.overflow.len() == 0 {
		return false
	}
	// The wheel is empty: jump straight to the heap top. advanceTo puts
	// the top (and any same-cycle followers) on the dispatch ring.
	k.advanceTo(k.overflow.top().at)
	return true
}

// pop removes and returns the next event's callback in (time, seq) order,
// advancing the clock to its cycle; ok is false when the queue is empty.
// The popped node returns to the free list with its closure cleared so
// the arena does not pin it.
func (k *Kernel) pop() (fn func(), ok bool) {
	if k.cur.head == 0 {
		if k.oneValid {
			e := k.one
			k.one = event{}
			k.oneValid = false
			k.advanceTo(e.at) // overflow is empty; this only moves the clock
			return e.fn, true
		}
		if !k.refill() {
			return nil, false
		}
	}
	i := k.cur.head
	n := &k.nodes[i]
	fn = n.fn
	k.cur.head = n.next
	if n.next == 0 {
		k.cur.tail = 0
	}
	n.fn = nil
	n.next = k.freeHead
	k.freeHead = i
	k.near--
	return fn, true
}

// drainRing dispatches the ring's whole FIFO as one batch — every event
// already sits at the current cycle, so no per-event scan/refill/register
// check is needed between dispatches. Handlers that schedule at the
// current cycle append to the ring mid-drain and are dispatched in the
// same batch, preserving global insertion order (the ring IS the current
// cycle's FIFO). Dispatch stops when the ring empties, Stop is called, or
// budget events have run (budget 0 = unlimited). The node is recycled and
// its fields copied out before the handler runs: the handler may grow the
// node arena, invalidating the pointer, and may immediately reuse the
// freed node for a same-cycle append.
func (k *Kernel) drainRing(budget uint64) uint64 {
	var n uint64
	for {
		i := k.cur.head
		if i == 0 {
			break
		}
		nd := &k.nodes[i]
		fn := nd.fn
		next := nd.next
		nd.fn = nil
		nd.next = k.freeHead
		k.freeHead = i
		k.cur.head = next
		if next == 0 {
			k.cur.tail = 0
		}
		k.near--
		k.executed++
		n++
		fn()
		if k.stopped || n == budget {
			break
		}
	}
	return n
}

// peekTime reports the next event's cycle without dispatching or
// advancing the clock.
func (k *Kernel) peekTime() (Cycle, bool) {
	if k.cur.head != 0 {
		return k.now, true
	}
	if k.oneValid {
		return k.one.at, true
	}
	if k.near > 0 {
		idx := int(k.now) & wheelMask
		if k.occ[idx>>6]&(1<<uint(idx&63)) != 0 {
			return k.now, true
		}
		return k.now + Cycle(k.scanFrom(idx)), true
	}
	if k.overflow.len() > 0 {
		return k.overflow.top().at, true
	}
	return 0, false
}

// Reset re-arms the kernel for a fresh run: the clock returns to cycle 0,
// the insertion-sequence counter restarts (so tie-breaking replays
// identically), and the executed count clears. Queued events are
// discarded but all storage — the node arena, buckets, occupancy bitmap,
// and the overflow heap's backing array — is retained; dropped closures
// are cleared so nothing stays pinned. After a drained run this is O(1):
// every arena node is already on the free list. A reset kernel is
// observably equivalent to a freshly constructed one.
func (k *Kernel) Reset() {
	if k.near > 0 || k.overflow.len() > 0 {
		// Events pending (a stopped run): drop them, clearing their
		// closures, and rebuild the free list from scratch.
		clear(k.nodes)
		if len(k.nodes) > 0 {
			k.nodes = k.nodes[:1]
		}
		k.freeHead = 0
		clear(k.buckets[:])
		clear(k.occ[:])
		k.cur = fifo{}
		k.near = 0
		k.overflow.reset()
	}
	k.one = event{}
	k.oneValid = false
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.executed = 0
	if k.nodes != nil {
		k.limit = WheelSpan
	}
}

// Run dispatches events in order until the queue drains, Stop is called,
// or maxEvents events have executed (0 means no limit). It returns the
// number of events executed by this call.
//
// The loop is batched: each iteration makes the dispatch ring non-empty
// (the one-event register, or a whole cycle spliced from the wheel by
// refill) and then drains the ring's FIFO in one pass, paying the
// register/refill classification once per cycle instead of once per
// event.
func (k *Kernel) Run(maxEvents uint64) uint64 {
	k.stopped = false
	var n uint64
	for !k.stopped {
		if maxEvents != 0 && n >= maxEvents {
			break
		}
		if k.cur.head == 0 {
			if k.oneValid {
				e := k.one
				k.one = event{}
				k.oneValid = false
				k.advanceTo(e.at) // overflow is empty; this only moves the clock
				k.executed++
				n++
				e.fn()
				continue
			}
			if !k.refill() {
				break
			}
		}
		var budget uint64
		if maxEvents != 0 {
			budget = maxEvents - n
		}
		n += k.drainRing(budget)
	}
	return n
}

// RunUntil dispatches events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. Returns the number executed; the
// clock advances to the deadline if the run was not stopped early.
func (k *Kernel) RunUntil(deadline Cycle) uint64 {
	k.stopped = false
	var n uint64
	for !k.stopped {
		if k.cur.head != 0 && k.now <= deadline {
			// The whole ring sits at the current cycle, already checked
			// against the deadline: drain it as a batch (same-cycle appends
			// from handlers land at now and belong to this batch too).
			n += k.drainRing(0)
			continue
		}
		t, ok := k.peekTime()
		if !ok || t > deadline {
			break
		}
		fn, _ := k.pop()
		k.executed++
		n++
		fn()
	}
	if k.now < deadline && !k.stopped {
		k.advanceTo(deadline)
	}
	return n
}

// FreeList is a tiny LIFO recycler for pooled event-carrier objects (the
// model components schedule the same few callback shapes millions of
// times; pooling the carriers keeps steady-state scheduling
// allocation-free). Get returns a recycled object or false when the
// caller must construct (and bind the once-per-object run closure of) a
// fresh one; Put recycles an object whose fields have been copied out or
// cleared.
type FreeList[T any] struct {
	items []*T
}

// Get pops a recycled object, if any.
func (f *FreeList[T]) Get() (*T, bool) {
	n := len(f.items)
	if n == 0 {
		return nil, false
	}
	x := f.items[n-1]
	f.items = f.items[:n-1]
	return x, true
}

// Put recycles x for a later Get.
func (f *FreeList[T]) Put(x *T) {
	f.items = append(f.items, x)
}
