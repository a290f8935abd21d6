package core

import (
	"testing"

	"specdsm/internal/mem"
)

var blk = mem.MakeAddr(0, 0x100)

// blockIdx numbers blocks the way a directory numbers its entries,
// densely in first-touch order, so tests can name blocks by address. One
// numbering serves the whole package: a block keeps its index across
// predictors and Resets, as a directory entry does.
var blockIdx mem.BlockMap

// idxOf returns addr's block index (see core.Predictor).
func idxOf(addr mem.BlockAddr) int32 {
	bi, _ := blockIdx.Reserve(addr, int32(blockIdx.Len()))
	return bi
}

func obs(t MsgType, n mem.NodeID) Observation { return Observation{Type: t, Node: n} }

// feed drives a message sequence into p for the test block and returns the
// outcomes of tracked messages.
func feed(p Predictor, seq ...Observation) []Outcome {
	var outs []Outcome
	for _, o := range seq {
		out := p.Observe(blk, idxOf(blk), o)
		if out.Tracked {
			outs = append(outs, out)
		}
	}
	return outs
}

// producerConsumerIter is the paper's running example (Figures 2-4):
// P3 upgrades the block; the directory invalidates readers P1 and P2 whose
// acks return; then P1 and P2 read again.
func producerConsumerIter() []Observation {
	return []Observation{
		obs(MsgUpgrade, 3),
		obs(MsgAckInv, 1),
		obs(MsgAckInv, 2),
		obs(MsgRead, 1),
		obs(MsgRead, 2),
	}
}

func TestMSPIgnoresAcks(t *testing.T) {
	p := NewMSP(1)
	out := p.Observe(blk, idxOf(blk), obs(MsgAckInv, 1))
	if out.Tracked {
		t.Fatal("MSP must not track acks")
	}
	out = p.Observe(blk, idxOf(blk), obs(MsgWriteback, 2))
	if out.Tracked {
		t.Fatal("MSP must not track writebacks")
	}
	if p.Stats().Tracked != 0 {
		t.Fatalf("stats counted untracked messages: %+v", p.Stats())
	}
}

func TestCosmosTracksAcks(t *testing.T) {
	p := NewCosmos(1)
	if out := p.Observe(blk, idxOf(blk), obs(MsgAckInv, 1)); !out.Tracked {
		t.Fatal("Cosmos must track acks")
	}
}

// Figure 3: MSP captures the producer/consumer pattern in a three-entry
// cycle (<Upgrade,P3>→<Read,P1>, <Read,P1>→<Read,P2>, <Read,P2>→<Upgrade,P3>),
// plus one dead cold-start entry for the empty history. From the third
// iteration on, every request is predicted correctly.
func TestMSPProducerConsumerLearns(t *testing.T) {
	p := NewMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	c := p.Census()
	if c.Blocks != 1 {
		t.Fatalf("blocks = %d", c.Blocks)
	}
	if c.Entries != 4 {
		t.Fatalf("MSP entries = %d, want 4 (3-entry cycle of Figure 3 + cold start)", c.Entries)
	}
	outs := feed(p, producerConsumerIter()...)
	for i, o := range outs {
		if !o.Predicted || !o.Correct {
			t.Fatalf("iteration 3 message %d not predicted correctly: %+v", i, o)
		}
	}
	// Steady state: no further entries appear.
	feed(p, producerConsumerIter()...)
	if got := p.Census().Entries; got != 4 {
		t.Fatalf("steady-state entries = %d, want 4", got)
	}
}

// Figure 4: VMSP folds the two reads into one vector symbol, so its steady
// cycle needs only two entries (<Upgrade,P3>→<Read,{P1,P2}> and
// <Read,{P1,P2}>→<Upgrade,P3>), plus the dead cold-start entry — one fewer
// than MSP's three-entry cycle.
func TestVMSPProducerConsumerLearns(t *testing.T) {
	p := NewVMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	c := p.Census()
	if c.Entries != 3 {
		t.Fatalf("VMSP entries = %d, want 3 (2-entry cycle of Figure 4 + cold start)", c.Entries)
	}
	outs := feed(p, producerConsumerIter()...)
	for i, o := range outs {
		if !o.Predicted || !o.Correct {
			t.Fatalf("iteration 3 message %d: %+v", i, o)
		}
	}
}

// §3.1: a re-ordering of the two reads defeats MSP at depth 1 but not
// VMSP, whose vector encoding is order-free.
func TestReadReorderingMSPvsVMSP(t *testing.T) {
	iterA := []Observation{obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2)}
	iterB := []Observation{obs(MsgUpgrade, 3), obs(MsgRead, 2), obs(MsgRead, 1)}

	msp := NewMSP(1)
	vmsp := NewVMSP(1)
	for i := 0; i < 10; i++ {
		it := iterA
		if i%2 == 1 {
			it = iterB
		}
		feed(msp, it...)
		feed(vmsp, it...)
	}
	mspAcc := msp.Stats().Accuracy()
	vmspAcc := vmsp.Stats().Accuracy()
	if vmspAcc <= mspAcc {
		t.Fatalf("VMSP (%.2f) must beat MSP (%.2f) under read re-ordering", vmspAcc, mspAcc)
	}
	if vmspAcc < 0.9 {
		t.Fatalf("VMSP accuracy %.2f too low; reordering should not hurt it", vmspAcc)
	}
	// MSP needs depth 2 to capture both orders (§3.1).
	msp2 := NewMSP(2)
	for i := 0; i < 20; i++ {
		it := iterA
		if i%2 == 1 {
			it = iterB
		}
		feed(msp2, it...)
	}
	if msp2.Stats().Accuracy() <= mspAcc {
		t.Fatalf("MSP d=2 accuracy %.2f should exceed d=1 %.2f", msp2.Stats().Accuracy(), mspAcc)
	}
}

// §2.1: ack re-ordering perturbs Cosmos but is invisible to MSP.
func TestAckReorderingCosmosVsMSP(t *testing.T) {
	iterA := []Observation{
		obs(MsgUpgrade, 3), obs(MsgAckInv, 1), obs(MsgAckInv, 2),
		obs(MsgRead, 1), obs(MsgRead, 2),
	}
	iterB := []Observation{
		obs(MsgUpgrade, 3), obs(MsgAckInv, 2), obs(MsgAckInv, 1),
		obs(MsgRead, 1), obs(MsgRead, 2),
	}
	cosmos := NewCosmos(1)
	msp := NewMSP(1)
	for i := 0; i < 20; i++ {
		it := iterA
		if i%2 == 1 {
			it = iterB
		}
		feed(cosmos, it...)
		feed(msp, it...)
	}
	if cosmos.Stats().Accuracy() >= msp.Stats().Accuracy() {
		t.Fatalf("MSP (%.2f) must beat Cosmos (%.2f) under ack re-ordering",
			msp.Stats().Accuracy(), cosmos.Stats().Accuracy())
	}
}

// §2.1: alternating writers need history depth 2.
func TestHistoryDepthDisambiguatesWriters(t *testing.T) {
	mk := func(writer mem.NodeID, readers ...mem.NodeID) []Observation {
		seq := []Observation{obs(MsgUpgrade, writer)}
		for _, r := range readers {
			seq = append(seq, obs(MsgRead, r))
		}
		return seq
	}
	run := func(p *TwoLevel) float64 {
		for i := 0; i < 30; i++ {
			if i%2 == 0 {
				feed(p, mk(3, 1, 2)...)
			} else {
				feed(p, mk(2, 1, 3)...)
			}
		}
		return p.Stats().Accuracy()
	}
	d1 := run(NewMSP(1))
	d2 := run(NewMSP(2))
	if d2 <= d1 {
		t.Fatalf("depth 2 accuracy %.2f should exceed depth 1 %.2f", d2, d1)
	}
	if d2 < 0.9 {
		t.Fatalf("depth 2 should capture the alternating pattern, got %.2f", d2)
	}
}

func TestVMSPMembershipScoring(t *testing.T) {
	p := NewVMSP(1)
	// Learn: Upgrade P3 -> reads {1,2} -> Upgrade P3 ...
	feed(p, obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgUpgrade, 3))
	// Next run arrives in the opposite order; both reads are members.
	outs := feed(p, obs(MsgRead, 2), obs(MsgRead, 1))
	for i, o := range outs {
		if !o.Correct {
			t.Fatalf("read %d should be correct by membership: %+v", i, o)
		}
	}
	// A read from a non-member scores incorrect.
	out := p.Observe(blk, idxOf(blk), obs(MsgRead, 7))
	if !out.Predicted || out.Correct {
		t.Fatalf("non-member read: %+v", out)
	}
}

func TestVMSPRepeatReaderScoresIncorrect(t *testing.T) {
	p := NewVMSP(1)
	feed(p, obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgUpgrade, 3))
	feed(p, obs(MsgRead, 1))
	out := p.Observe(blk, idxOf(blk), obs(MsgRead, 1)) // duplicate within open run
	if out.Correct {
		t.Fatal("duplicate read within a run must not score correct")
	}
}

func TestPredictNext(t *testing.T) {
	p := NewMSP(1)
	if _, ok := p.PredictNext(blk, idxOf(blk)); ok {
		t.Fatal("cold block must not predict")
	}
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	sym, ok := p.PredictNext(blk, idxOf(blk))
	if !ok || sym.Type != MsgRead || sym.Node != 1 {
		t.Fatalf("PredictNext = %v ok=%v, want <Read,P1>", sym, ok)
	}
}

func TestPredictReadersVMSP(t *testing.T) {
	p := NewVMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("expected read prediction after learned upgrade")
	}
	want := mem.VecOf(1, 2)
	if !rp.Readers.Equal(want) {
		t.Fatalf("Readers = %v, want %v", rp.Readers, want)
	}
}

func TestPredictReadersMSPChains(t *testing.T) {
	p := NewMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("expected chained read prediction")
	}
	want := mem.VecOf(1, 2)
	if !rp.Readers.Equal(want) {
		t.Fatalf("chained Readers = %v, want %v", rp.Readers, want)
	}
}

func TestPredictReadersNoneForWritePrediction(t *testing.T) {
	p := NewMSP(1)
	// Learn migratory: Read P1, Upgrade P1, Read P2, Upgrade P2 ...
	for i := 0; i < 4; i++ {
		n := mem.NodeID(1 + i%2)
		feed(p, obs(MsgRead, n), obs(MsgUpgrade, n))
	}
	// After an upgrade by P1 the successor is a read; after that read the
	// successor is an upgrade, so the chain stops at one reader.
	feed(p, obs(MsgRead, 1))
	if rp, ok := p.PredictReaders(blk, idxOf(blk)); ok {
		if rp.Readers.Count() > 1 {
			t.Fatalf("migratory chain should stop at the upgrade, got %v", rp.Readers)
		}
	}
}

func TestPruneVMSP(t *testing.T) {
	p := NewVMSP(1)
	feed(p, producerConsumerIter()...)
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("no prediction")
	}
	rp.Prune(2)
	rp2, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("prediction should survive single prune")
	}
	if rp2.Readers.Has(2) || !rp2.Readers.Has(1) {
		t.Fatalf("after prune Readers = %v", rp2.Readers)
	}
	rp2.Prune(1)
	if _, ok := p.PredictReaders(blk, idxOf(blk)); ok {
		t.Fatal("fully pruned vector must stop predicting")
	}
}

func TestSWIBits(t *testing.T) {
	p := NewVMSP(1)
	if !p.SWIGuard(idxOf(blk)).Allowed() {
		t.Fatal("cold block should allow SWI")
	}
	feed(p, producerConsumerIter()...)
	feed(p, obs(MsgUpgrade, 3))
	if !p.SWIGuard(idxOf(blk)).Allowed() {
		t.Fatal("SWI should be allowed before any premature invalidation")
	}
	g := p.SWIGuard(idxOf(blk))
	if !g.Allowed() {
		t.Fatal("guard should allow before marking")
	}
	g.MarkPremature()
	if p.SWIGuard(idxOf(blk)).Allowed() {
		t.Fatal("premature bit must suppress SWI")
	}
	// The bit is per pattern entry: re-learning the same pattern keeps the
	// bit set.
	feed(p, obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgUpgrade, 3))
	if p.SWIGuard(idxOf(blk)).Allowed() {
		t.Fatal("same pattern must stay suppressed")
	}
}

// The guard stays bound to the entry it was captured from, even after the
// block's history advances and lastWriteEntry moves on — the premature bit
// must land on the pattern that caused the misfire, not whatever write
// pattern is most recent when the misfire is detected.
func TestSWIGuardStableAcrossHistoryAdvance(t *testing.T) {
	p := NewMSP(1)
	feed(p, obs(MsgWrite, 3), obs(MsgRead, 1), obs(MsgWrite, 3), obs(MsgRead, 1))
	g := p.SWIGuard(idxOf(blk)) // entry for pattern [Read P1] -> Write P3
	// Advance with a different write pattern.
	feed(p, obs(MsgRead, 2), obs(MsgWrite, 5))
	g.MarkPremature()
	// The newest write entry ([Read P2] -> Write P5) must be unaffected.
	if !p.SWIGuard(idxOf(blk)).Allowed() {
		t.Fatal("marking an old guard must not suppress the current pattern")
	}
}

func TestAssumeAndRetractReaders(t *testing.T) {
	p := NewVMSP(1)
	// Learn Upgrade P3 -> Read {1,2} over two iterations.
	feed(p, obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2))
	feed(p, obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2))
	// Speculative round: the upgrade arrives, readers are served
	// speculatively so no read requests reach the directory.
	feed(p, obs(MsgUpgrade, 3))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok || !rp.Readers.Equal(mem.VecOf(1, 2)) {
		t.Fatalf("prediction = %v ok=%v", rp.Readers, ok)
	}
	p.AssumeReaders(blk, idxOf(blk), rp.Readers)
	// Next upgrade closes the assumed run; the read pattern must survive.
	feed(p, obs(MsgUpgrade, 3))
	rp2, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok || !rp2.Readers.Equal(mem.VecOf(1, 2)) {
		t.Fatalf("pattern lost after assumed run: %v ok=%v", rp2.Readers, ok)
	}

	// Next speculative round: forward again, then verification reports
	// node 2 never referenced its copy — retract it from the open run and
	// prune it from the pattern entries before the run closes.
	p.AssumeReaders(blk, idxOf(blk), rp2.Readers)
	p.RetractReader(idxOf(blk), 2)
	rp2.Prune(2)
	feed(p, obs(MsgUpgrade, 3))
	rp4, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok || !rp4.Readers.Equal(mem.VecOf(1)) {
		t.Fatalf("after retract+prune prediction = %v ok=%v", rp4.Readers, ok)
	}
}

func TestStatsInvariant(t *testing.T) {
	p := NewVMSP(2)
	seqs := [][]Observation{
		producerConsumerIter(),
		{obs(MsgRead, 5), obs(MsgWrite, 6)},
		{obs(MsgUpgrade, 2), obs(MsgRead, 0), obs(MsgRead, 7), obs(MsgWrite, 2)},
	}
	for i := 0; i < 50; i++ {
		feed(p, seqs[i%len(seqs)]...)
	}
	s := p.Stats()
	if s.Correct > s.Predicted || s.Predicted > s.Tracked {
		t.Fatalf("invariant violated: %+v", s)
	}
	if s.Accuracy() < 0 || s.Accuracy() > 1 || s.Coverage() < 0 || s.Coverage() > 1 {
		t.Fatalf("ratios out of range: %+v", s)
	}
}

func TestCensusCountsBlocks(t *testing.T) {
	p := NewMSP(1)
	a := mem.MakeAddr(0, 1)
	b := mem.MakeAddr(1, 2)
	p.Observe(a, idxOf(a), obs(MsgRead, 0))
	p.Observe(b, idxOf(b), obs(MsgRead, 1))
	p.Observe(b, idxOf(b), obs(MsgWrite, 2))
	c := p.Census()
	if c.Blocks != 2 {
		t.Fatalf("blocks = %d", c.Blocks)
	}
	if c.Entries != 3 {
		t.Fatalf("entries = %d", c.Entries)
	}
	if got := c.EntriesPerBlock(); got != 1.5 {
		t.Fatalf("pte = %v", got)
	}
}

func TestBytesPerBlockFormulas(t *testing.T) {
	// Spot values from the paper's §7.3 formulas.
	if got := BytesPerBlock(KindCosmos, 5); got != (7+14*5)/8.0 {
		t.Fatalf("cosmos: %v", got)
	}
	if got := BytesPerBlock(KindMSP, 3); got != (6+12*3)/8.0 {
		t.Fatalf("msp: %v", got)
	}
	if got := BytesPerBlock(KindVMSP, 2); got != (18+24*2)/8.0 {
		t.Fatalf("vmsp: %v", got)
	}
}

func TestReset(t *testing.T) {
	p := NewVMSP(1)
	feed(p, producerConsumerIter()...)
	p.Reset()
	if p.Stats() != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", p.Stats())
	}
	if c := p.Census(); c.Blocks != 0 || c.Entries != 0 {
		t.Fatalf("census not cleared: %+v", c)
	}
}

func TestKindStrings(t *testing.T) {
	if KindCosmos.String() != "Cosmos" || KindMSP.String() != "MSP" || KindVMSP.String() != "VMSP" {
		t.Fatal("kind strings wrong")
	}
}

func TestDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for depth 0")
		}
	}()
	New(KindMSP, 0)
}

func TestEWITable(t *testing.T) {
	var tbl EWITable
	a := mem.MakeAddr(0, 1)
	b := mem.MakeAddr(0, 2)

	if _, ok := tbl.Last(); ok {
		t.Fatal("empty table must not report a last write")
	}
	if _, cand := tbl.Update(a); cand {
		t.Fatal("first write is not an SWI candidate")
	}
	if _, cand := tbl.Update(a); cand {
		t.Fatal("repeat write to same block is not a candidate")
	}
	prev, cand := tbl.Update(b)
	if !cand || prev != a {
		t.Fatalf("Update = (%v,%v), want (a,true)", prev, cand)
	}
	if last, ok := tbl.Last(); !ok || last != b {
		t.Fatalf("Last = (%v,%v)", last, ok)
	}
	tbl.Reset()
	if _, ok := tbl.Last(); ok {
		t.Fatal("reset failed")
	}
}
