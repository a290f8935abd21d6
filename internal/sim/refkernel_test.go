package sim

import "fmt"

// ReferenceKernel is the pre-wheel event kernel: a single value-based
// 4-ary heap ordered by (time, insertion-seq). It is retained verbatim as
// the differential-testing oracle for Kernel — the wheel must dispatch
// every schedule in exactly the order this heap does — and as the
// baseline for the scheduler microbenchmarks. It is not used by the
// simulator itself, so it lives in a test file.
type ReferenceKernel struct {
	now      Cycle
	seq      uint64
	queue    eventHeap
	stopped  bool
	executed uint64
}

// NewReferenceKernel returns a reference kernel with the clock at cycle 0.
func NewReferenceKernel() *ReferenceKernel {
	return &ReferenceKernel{}
}

// Now returns the current simulated cycle.
func (k *ReferenceKernel) Now() Cycle { return k.now }

// Executed returns the number of events dispatched so far.
func (k *ReferenceKernel) Executed() uint64 { return k.executed }

// Pending returns the number of events waiting in the queue.
func (k *ReferenceKernel) Pending() int { return k.queue.len() }

// At schedules fn to run at absolute cycle at.
func (k *ReferenceKernel) At(at Cycle, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", at, k.now))
	}
	k.seq++
	k.queue.push(event{at: at, seq: k.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (k *ReferenceKernel) After(delay Cycle, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.At(k.now+delay, fn)
}

// Stop makes Run return after the currently dispatching event completes.
func (k *ReferenceKernel) Stop() { k.stopped = true }

// Reset re-arms the kernel for a fresh run, discarding queued events but
// retaining the heap's backing array.
func (k *ReferenceKernel) Reset() {
	k.queue.reset()
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.executed = 0
}

// Run dispatches events in order until the queue drains, Stop is called,
// or maxEvents events have executed (0 means no limit).
func (k *ReferenceKernel) Run(maxEvents uint64) uint64 {
	k.stopped = false
	var n uint64
	for k.queue.len() > 0 && !k.stopped {
		if maxEvents != 0 && n >= maxEvents {
			break
		}
		e := k.queue.pop()
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		k.executed++
		n++
		e.fn()
	}
	return n
}

// RunUntil dispatches events with timestamps <= deadline; the clock
// advances to the deadline if the run was not stopped early.
func (k *ReferenceKernel) RunUntil(deadline Cycle) uint64 {
	k.stopped = false
	var n uint64
	for k.queue.len() > 0 && !k.stopped {
		if k.queue.top().at > deadline {
			break
		}
		e := k.queue.pop()
		k.now = e.at
		k.executed++
		n++
		e.fn()
	}
	if k.now < deadline && !k.stopped {
		k.now = deadline
	}
	return n
}
