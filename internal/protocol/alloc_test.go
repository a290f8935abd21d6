package protocol

import (
	"testing"

	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// allocHarness drives a system without the testing.T plumbing of harness
// so the measured closures stay allocation-free themselves: the done
// callback is bound once and every access drains the kernel.
type allocHarness struct {
	k    *sim.Kernel
	sys  *System
	noop func(AccessOutcome)
}

func newAllocHarness(n int, opts ...Options) *allocHarness {
	k := sim.NewKernel()
	return &allocHarness{
		k:    k,
		sys:  NewSystem(k, n, tableFlight, opts),
		noop: func(AccessOutcome) {},
	}
}

func (h *allocHarness) access(node mem.NodeID, isWrite bool, addr mem.BlockAddr) {
	h.sys.Node(node).Access(isWrite, addr, h.noop)
	h.k.Run(0)
}

// serveCycle exercises every steady-state directory serve path against
// one block homed at node 0: a read recalling an exclusive owner, a plain
// shared-grant read, an upgrade invalidating the other sharer (inval +
// ack + upgrade-ack), and a write recalling the new owner (writeback +
// exclusive grant).
func (h *allocHarness) serveCycle(addr mem.BlockAddr) {
	h.access(1, false, addr)
	h.access(2, false, addr)
	h.access(1, true, addr)
	h.access(2, true, addr)
}

// TestDirectoryServeSteadyStateZeroAllocs guards the tentpole contract of
// the pooled-transaction / inline-entry directory: once the working set
// is warm (entries created, free lists primed, queues at capacity), a
// full recall/inval/upgrade/writeback serve cycle allocates nothing.
func TestDirectoryServeSteadyStateZeroAllocs(t *testing.T) {
	h := newAllocHarness(3)
	addr := mem.MakeAddr(0, 1)
	for i := 0; i < 50; i++ {
		h.serveCycle(addr)
	}
	avg := testing.AllocsPerRun(100, func() {
		h.serveCycle(addr)
	})
	if avg != 0 {
		t.Errorf("steady-state serve cycle allocates %.2f/run, want 0", avg)
	}
	if err := h.sys.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if v := h.sys.Violations(); len(v) != 0 {
		t.Fatalf("coherence violations: %v", v)
	}
}

// TestCacheHitZeroAllocs guards the most frequent operation in the whole
// simulator: a processor cache hit (read on a shared line, store on an
// exclusive line) completes through the pooled done-event path without
// allocating, with the coherence checker on (as every run has it) and off
// (BenchmarkCacheHitUnchecked).
func TestCacheHitZeroAllocs(t *testing.T) {
	for _, checking := range []bool{true, false} {
		h := newAllocHarness(2)
		h.sys.SetCoherenceChecking(checking)
		rd := mem.MakeAddr(1, 1) // remote shared line, read hits
		wr := mem.MakeAddr(1, 2) // remote exclusive line, store hits
		h.access(0, false, rd)
		h.access(0, true, wr)
		for i := 0; i < 20; i++ {
			h.access(0, false, rd)
			h.access(0, true, wr)
		}
		avg := testing.AllocsPerRun(100, func() {
			h.access(0, false, rd)
			h.access(0, true, wr)
		})
		if avg != 0 {
			t.Errorf("cache hits (checking %v) allocate %.2f/run, want 0", checking, avg)
		}
		if err := h.sys.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProtocolSteadyStateZeroAllocsManyBlocks repeats the serve guard
// over a working set large enough to have grown the dense entry slices
// and the BlockMap through several rehashes, proving the growth path
// leaves no steady-state residue.
func TestProtocolSteadyStateZeroAllocsManyBlocks(t *testing.T) {
	h := newAllocHarness(3)
	addrs := make([]mem.BlockAddr, 200)
	for i := range addrs {
		addrs[i] = mem.MakeAddr(mem.NodeID(i%3), uint64(i))
	}
	warm := func() {
		for _, a := range addrs {
			h.access(1, true, a)
			h.access(2, false, a)
		}
	}
	warm()
	warm()
	avg := testing.AllocsPerRun(10, warm)
	if avg != 0 {
		t.Errorf("steady-state sweep over %d blocks allocates %.2f/run, want 0", len(addrs), avg)
	}
}
