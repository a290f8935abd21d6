// Package sim provides the discrete-event simulation kernel underneath the
// DSM machine model: a cycle-granular clock and an event queue with
// deterministic ordering.
//
// Components schedule closures to run at absolute or relative cycle times;
// the kernel runs them in (time, insertion) order so that simulations are
// bit-reproducible for a given seed and workload.
//
// Run is the one dispatch loop. It drains the queue, or stops early once
// its event budget is spent: the budget is the only way a run ends with
// events still pending, and the machine uses it as its runaway guard. A
// later Run resumes exactly where the budget cut the run, so Run(1)
// steps one event.
//
// # Queue structure
//
// The queue is a hierarchical time wheel with three tiers, classified per
// schedule by delay (plus a sparse-case register: a kernel whose entire
// pending set is one event holds it in two hot fields and touches no
// tier at all — the 0↔1-population request/response ping-pong common in
// protocol microstates stays as cheap as a one-element heap):
//
//   - Same-cycle ring: an event at exactly the current cycle is appended
//     to the dispatch ring the kernel is already draining — zero-delay
//     work (After(0), completion callbacks, routeAfter(0)) never touches
//     the wheel or the heap.
//   - Near wheel: an event within WheelSpan cycles of now is appended to
//     the per-cycle FIFO bucket for its cycle, O(1). Every fixed latency
//     in the machine model (Table 1 node timing, NI occupancies, flight
//     latencies up to the RTL sweep's slowest fabric, barrier exit, lock
//     hand-off) is below WheelSpan by construction, so steady-state
//     scheduling is constant-time.
//   - Overflow heap: anything at or beyond now+WheelSpan waits in a
//     value-based 4-ary min-heap and is promoted into the wheel when the
//     clock advances to within WheelSpan of it. Each far-future event
//     pays one heap push and one pop, total — never more.
//
// # Ordering contract
//
// Dispatch order is exactly (time, insertion-seq), the same total order
// the pre-wheel heap kernel produced; any heap shape or bucket layout
// yielding that order is observationally identical, which is what keeps
// study output byte-stable across kernel rewrites. The wheel maintains it
// through two invariants:
//
//   - Window invariant: every bucketed event lies in [now, now+WheelSpan).
//     Two distinct times in a WheelSpan-wide window cannot collide in the
//     modular bucket index, so each bucket holds events of one single
//     cycle and FIFO append order within a bucket is insertion order.
//   - Promotion invariant: the overflow heap only ever holds events at or
//     beyond now+WheelSpan. When the clock advances, overflow events the
//     new horizon reaches are promoted immediately, popped in (time, seq)
//     order — so same-cycle promotions enter their bucket in insertion
//     order, and always ahead of any later direct insert (whose seq is
//     necessarily larger, because scheduling a cycle directly requires
//     the horizon to have already passed it).
//
// # Storage
//
// Bucket chains are intrusive singly-linked lists over one pooled node
// arena (index-linked, 0 the nil sentinel); popped nodes return to a free
// list with their closures cleared. Schedule and dispatch are 0 allocs/op
// in steady state for all three tiers, and Reset clears-but-retains every
// structure — O(1) after a drained run — so an arena-reused kernel replays
// tie-breaks identically (the seq counter restarts).
//
// ReferenceKernel, defined in the package's tests, is the retained
// pre-wheel implementation (a single 4-ary heap): the differential
// oracle that pins the wheel's dispatch order, and the baseline its
// microbenchmarks are judged against.
package sim
