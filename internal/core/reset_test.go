package core

import (
	"fmt"
	"testing"

	"specdsm/internal/mem"
)

// resetWorkload is a message stream mixing the behaviours the tables must
// retain across Reset: plain producer/consumer cycles, read re-ordering,
// migratory write chains, untracked acks, and multiple blocks.
func resetWorkload() []struct {
	addr mem.BlockAddr
	obs  Observation
} {
	a := mem.MakeAddr(0, 0x10)
	b := mem.MakeAddr(1, 0x20)
	var seq []struct {
		addr mem.BlockAddr
		obs  Observation
	}
	add := func(addr mem.BlockAddr, o Observation) {
		seq = append(seq, struct {
			addr mem.BlockAddr
			obs  Observation
		}{addr, o})
	}
	for i := 0; i < 6; i++ {
		add(a, obs(MsgUpgrade, 3))
		add(a, obs(MsgAckInv, 1))
		if i%2 == 0 {
			add(a, obs(MsgRead, 1))
			add(a, obs(MsgRead, 2))
		} else {
			add(a, obs(MsgRead, 2))
			add(a, obs(MsgRead, 1))
		}
		n := mem.NodeID(1 + i%2)
		add(b, obs(MsgRead, n))
		add(b, obs(MsgWrite, n))
	}
	return seq
}

// snapshot captures every externally observable surface of a predictor.
func snapshot(p *TwoLevel) string {
	a := mem.MakeAddr(0, 0x10)
	b := mem.MakeAddr(1, 0x20)
	s := fmt.Sprintf("stats=%+v census=%+v", p.Stats(), p.Census())
	for _, addr := range []mem.BlockAddr{a, b} {
		sym, ok := p.PredictNext(addr, idxOf(addr))
		s += fmt.Sprintf(" next(%v)=%v,%v", addr, sym, ok)
		rp, ok := p.PredictReaders(addr, idxOf(addr))
		s += fmt.Sprintf(" readers(%v)=%v,%v", addr, rp.Readers, ok)
		s += fmt.Sprintf(" swi(%v)=%v", addr, p.SWIGuard(idxOf(addr)).Allowed())
		s += fmt.Sprintf(" upg(%v)=%v", addr, p.PredictsUpgradeBy(addr, idxOf(addr), 1))
	}
	return s
}

// TestResetThenReuseEquivalentToFresh pins the Reset contract the
// table-reuse optimization must uphold: a predictor that has been used
// and Reset must behave observably identically to a freshly constructed
// one — same per-message outcomes, stats, census, and speculation
// surfaces.
func TestResetThenReuseEquivalentToFresh(t *testing.T) {
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		for _, depth := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/d%d", kind, depth), func(t *testing.T) {
				fresh := New(kind, depth)
				reused := New(kind, depth)
				// Dirty the reused predictor with a different stream, then
				// Reset it. The stream's blocks sit at the indices the
				// workload below uses for its own blocks, and at indices
				// past them, so reuse of an index must not leak history.
				dirty := []int32{idxOf(mem.MakeAddr(0, 0x10)), idxOf(mem.MakeAddr(1, 0x20)), 1000, 1001, 1002}
				for i := 0; i < 40; i++ {
					addr, bi := mem.MakeAddr(2, uint64(i%5)), dirty[i%5]
					reused.Observe(addr, bi, obs(MsgWrite, mem.NodeID(i%7)))
					reused.Observe(addr, bi, obs(MsgRead, mem.NodeID((i+1)%7)))
				}
				reused.Reset()
				if s := reused.Stats(); s != (Stats{}) {
					t.Fatalf("stats survive Reset: %+v", s)
				}
				if c := reused.Census(); c.Blocks != 0 || c.Entries != 0 {
					t.Fatalf("census survives Reset: %+v", c)
				}

				for i, m := range resetWorkload() {
					of := fresh.Observe(m.addr, idxOf(m.addr), m.obs)
					or := reused.Observe(m.addr, idxOf(m.addr), m.obs)
					if of != or {
						t.Fatalf("message %d: fresh %+v vs reset-reused %+v", i, of, or)
					}
				}
				if a, b := snapshot(fresh), snapshot(reused); a != b {
					t.Fatalf("surfaces diverged:\nfresh:  %s\nreused: %s", a, b)
				}
			})
		}
	}
}

// TestStaleHandlesAfterResetAreNoOps pins the fail-safe contract of the
// index-based handles: a SWIGuard or ReadPrediction captured before a
// Reset must neither panic nor mutate the reused tables — it degrades to
// the zero-value no-op, like the orphaned-entry writes of the old
// pointer-based design.
func TestStaleHandlesAfterResetAreNoOps(t *testing.T) {
	p := NewVMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	guard := p.SWIGuard(idxOf(blk))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("no prediction before Reset")
	}

	p.Reset()
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))

	// Stale handles must be inert against the re-learned tables.
	guard.MarkPremature()
	rp.Prune(1)
	rp.Prune(2)
	if !guard.Allowed() {
		t.Error("stale guard must report Allowed (no-op zero-value behaviour)")
	}
	if !p.SWIGuard(idxOf(blk)).Allowed() {
		t.Error("stale MarkPremature leaked into the re-learned write pattern")
	}
	rp2, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok || !rp2.Readers.Equal(mem.VecOf(1, 2)) {
		t.Errorf("stale Prune leaked into re-learned prediction: %v ok=%v", rp2.Readers, ok)
	}
}

// TestResetReusesStorage verifies the point of the exercise: a second run
// over the same working set allocates (almost) nothing, because Reset
// retains map buckets and slice capacity.
func TestResetReusesStorage(t *testing.T) {
	p := NewVMSP(2)
	seq := resetWorkload()
	work := func() {
		for _, m := range seq {
			p.Observe(m.addr, idxOf(m.addr), m.obs)
		}
	}
	work()
	avg := testing.AllocsPerRun(50, func() {
		p.Reset()
		work()
	})
	// A fresh predictor pays hundreds of allocations for this workload;
	// reset-reuse steady state must pay none.
	if avg != 0 {
		t.Errorf("reset-then-rerun allocates %.2f/run, want 0", avg)
	}
}
