package core

import (
	"testing"

	"specdsm/internal/mem"
)

// Confidence gating: an unstable pattern whose successor changes every
// occurrence never reaches the threshold, so the speculation surfaces
// stay silent — while accuracy scoring continues unaffected.
func TestConfidenceGatesUnstablePatterns(t *testing.T) {
	p := NewVMSP(1)
	p.SetConfidenceThreshold(2)
	// The reader after each write alternates: the vector entry for the
	// write history keeps flip-flopping.
	for i := 0; i < 10; i++ {
		reader := mem.NodeID(1 + i%2)
		feed(p, obs(MsgWrite, 0), obs(MsgRead, reader))
	}
	feed(p, obs(MsgWrite, 0))
	if _, ok := p.PredictReaders(blk, idxOf(blk)); ok {
		t.Fatal("flip-flopping pattern must not pass the confidence gate")
	}
	if p.Stats().Tracked == 0 || p.Stats().Predicted == 0 {
		t.Fatal("accuracy scoring must continue under gating")
	}
}

func TestConfidencePassesStablePatterns(t *testing.T) {
	p := NewVMSP(1)
	p.SetConfidenceThreshold(2)
	for i := 0; i < 6; i++ {
		feed(p, obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgRead, 2))
	}
	feed(p, obs(MsgWrite, 0))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok || !rp.Readers.Equal(mem.VecOf(1, 2)) {
		t.Fatalf("stable pattern should pass the gate: %v ok=%v", rp.Readers, ok)
	}
}

func TestConfidenceZeroIsPaperBehaviour(t *testing.T) {
	gated := NewVMSP(1)
	gated.SetConfidenceThreshold(0)
	plain := NewVMSP(1)
	seq := []Observation{obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgRead, 2)}
	feed(gated, seq...)
	feed(plain, seq...)
	feed(gated, obs(MsgWrite, 0))
	feed(plain, obs(MsgWrite, 0))
	g, gok := gated.PredictReaders(blk, idxOf(blk))
	q, qok := plain.PredictReaders(blk, idxOf(blk))
	if gok != qok || !g.Readers.Equal(q.Readers) {
		t.Fatalf("threshold 0 must match ungated behaviour: %v/%v vs %v/%v", g.Readers, gok, q.Readers, qok)
	}
}

func TestConfidenceThresholdClamped(t *testing.T) {
	p := NewVMSP(1)
	p.SetConfidenceThreshold(99) // clamps to 3
	for i := 0; i < 10; i++ {
		feed(p, obs(MsgWrite, 0), obs(MsgRead, 1))
	}
	feed(p, obs(MsgWrite, 0))
	if _, ok := p.PredictReaders(blk, idxOf(blk)); !ok {
		t.Fatal("a long-stable pattern must reach even the max threshold")
	}
	p.SetConfidenceThreshold(-5) // clamps to 0
	if _, ok := p.PredictReaders(blk, idxOf(blk)); !ok {
		t.Fatal("threshold 0 must not gate")
	}
}

func TestConfidenceGatesPredictNextAndUpgrade(t *testing.T) {
	p := NewMSP(1)
	p.SetConfidenceThreshold(2)
	// The successor of the write flip-flops between two readers, so the
	// [Write]-keyed entry never accumulates confidence.
	for i := 0; i < 10; i++ {
		n := mem.NodeID(1 + i%2)
		feed(p, obs(MsgWrite, 0), obs(MsgRead, n))
	}
	feed(p, obs(MsgWrite, 0))
	if _, ok := p.PredictNext(blk, idxOf(blk)); ok {
		t.Fatal("PredictNext must respect the gate for unstable patterns")
	}
	// A stable migratory chain builds confidence.
	p2 := NewMSP(1)
	p2.SetConfidenceThreshold(2)
	for i := 0; i < 8; i++ {
		feed(p2, obs(MsgRead, 1), obs(MsgUpgrade, 1), obs(MsgRead, 2), obs(MsgUpgrade, 2))
	}
	feed(p2, obs(MsgRead, 1))
	if !p2.PredictsUpgradeBy(blk, idxOf(blk), 1) {
		t.Fatal("stable migratory pattern should pass the gate")
	}
}
