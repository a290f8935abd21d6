package core

import (
	"testing"

	"specdsm/internal/mem"
)

// The block-index contract (see Predictor): per-block state lives at the
// caller's dense index, Census.Blocks counts only blocks that saw a
// tracked message, and the query surfaces never grow the state.

func TestUntrackedMessageAllocatesNoBlock(t *testing.T) {
	p := NewMSP(1)
	if out := p.Observe(mem.MakeAddr(0, 7), 3, obs(MsgAckInv, 1)); out.Tracked {
		t.Fatalf("MSP tracked an ack: %+v", out)
	}
	if c := p.Census(); c.Blocks != 0 || c.Entries != 0 {
		t.Fatalf("census after an untracked message = %+v, want no blocks", c)
	}
	if n := len(p.blockStates); n != 0 {
		t.Fatalf("untracked message grew the block slice to %d", n)
	}
}

func TestQueriesAtUntouchedIndicesGrowNothing(t *testing.T) {
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		p := New(kind, 1)
		addr := mem.MakeAddr(0, 0x40)
		const touched = 5
		for i := 0; i < 3; i++ {
			p.Observe(addr, touched, obs(MsgWrite, 1))
			p.Observe(addr, touched, obs(MsgRead, 2))
		}
		if c := p.Census(); c.Blocks != 1 {
			t.Fatalf("%v: Blocks = %d after touching one index above a gap, want 1", kind, c.Blocks)
		}
		before, census := len(p.blockStates), p.Census()
		other := mem.MakeAddr(0, 0x41)
		// Index 2 lies in the gap below the high-water mark; 6 and 1000
		// lie past it.
		for _, bi := range []int32{2, touched + 1, 1000} {
			if sym, ok := p.PredictNext(other, bi); ok || !sym.Equal(Symbol{}) {
				t.Fatalf("%v: PredictNext at untouched index %d = %v, %v", kind, bi, sym, ok)
			}
			if rp, ok := p.PredictReaders(other, bi); ok || !rp.Readers.Empty() {
				t.Fatalf("%v: PredictReaders at untouched index %d = %v, %v", kind, bi, rp.Readers, ok)
			}
			if p.PredictsUpgradeBy(other, bi, 2) {
				t.Fatalf("%v: PredictsUpgradeBy at untouched index %d", kind, bi)
			}
			if g := p.SWIGuard(bi); g != (SWIGuard{}) {
				t.Fatalf("%v: SWIGuard at untouched index %d is not the zero guard", kind, bi)
			}
			p.RetractReader(bi, 2)
			if n := len(p.blockStates); n != before {
				t.Fatalf("%v: queries at index %d grew the block slice %d -> %d", kind, bi, before, n)
			}
			if c := p.Census(); c != census {
				t.Fatalf("%v: queries at index %d changed the census %+v -> %+v", kind, bi, census, c)
			}
		}
	}
}
