package sim

import "fmt"

// ReferenceKernel is the pre-wheel event kernel: a single value-based
// 4-ary heap ordered by (time, insertion-seq), cut to the API the
// simulator uses. It is retained as the differential-testing oracle for
// Kernel — the wheel must dispatch every schedule in exactly the order
// this heap does — and as the
// baseline for the scheduler microbenchmarks. It is not used by the
// simulator itself, so it lives in a test file.
type ReferenceKernel struct {
	now   Cycle
	seq   uint64
	queue eventHeap
}

// NewReferenceKernel returns a reference kernel with the clock at cycle 0.
func NewReferenceKernel() *ReferenceKernel {
	return &ReferenceKernel{}
}

// Now returns the current simulated cycle.
func (k *ReferenceKernel) Now() Cycle { return k.now }

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

// Reset re-arms the kernel for a fresh run, discarding queued events but
// retaining the heap's backing array.
func (k *ReferenceKernel) Reset() {
	k.queue.reset()
	k.now = 0
	k.seq = 0
}

// Run dispatches events in order until the queue drains or maxEvents
// events have executed (0 means no limit).
func (k *ReferenceKernel) Run(maxEvents uint64) uint64 {
	var n uint64
	for k.queue.len() > 0 && (maxEvents == 0 || n < maxEvents) {
		e := k.queue.pop()
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		n++
		e.fn()
	}
	return n
}
