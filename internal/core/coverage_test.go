package core

import (
	"testing"

	"specdsm/internal/mem"
)

func TestStatsRatioEdgeCases(t *testing.T) {
	var s Stats
	if s.Accuracy() != 0 || s.Coverage() != 0 || s.CorrectFraction() != 0 {
		t.Fatal("zero stats must yield zero ratios")
	}
	s = Stats{Tracked: 10, Predicted: 8, Correct: 6}
	if s.Accuracy() != 0.75 {
		t.Fatalf("accuracy = %v", s.Accuracy())
	}
	if s.Coverage() != 0.8 {
		t.Fatalf("coverage = %v", s.Coverage())
	}
	if s.CorrectFraction() != 0.6 {
		t.Fatalf("correct fraction = %v", s.CorrectFraction())
	}
}

func TestCensusEdgeCases(t *testing.T) {
	var c Census
	if c.EntriesPerBlock() != 0 {
		t.Fatal("empty census pte must be zero")
	}
}

func TestSymbolAndTypeStrings(t *testing.T) {
	cases := map[string]string{
		Symbol{Type: MsgRead, Node: 3}.String():              "<Read,P3>",
		Symbol{Type: MsgRead, Vec: mem.VecOf(1, 2)}.String(): "<Read,{1,2}>",
		Symbol{Type: MsgUpgrade, Node: 7}.String():           "<Upgrade,P7>",
		Symbol{}.String():                                                          "<-,P0>",
		Symbol{Type: MsgAckInv, Node: 1}.String():                                  "<ack,P1>",
		Symbol{Type: MsgWriteback, Node: 2}.String():                               "<writeback,P2>",
		Symbol{Type: MsgType(42), Node: 0}.String():                                "<MsgType(42),P0>",
		Symbol{Type: MsgWrite, Node: mem.NodeID(5), Vec: mem.ReaderVec{}}.String(): "<Write,P5>",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestReqMsgTypeMapping(t *testing.T) {
	if ReqMsgType(mem.ReqRead) != MsgRead ||
		ReqMsgType(mem.ReqWrite) != MsgWrite ||
		ReqMsgType(mem.ReqUpgrade) != MsgUpgrade {
		t.Fatal("request mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid kind")
		}
	}()
	ReqMsgType(mem.ReqKind(99))
}

func TestAccessors(t *testing.T) {
	p := NewMSP(2)
	if p.Kind() != KindMSP || p.HistoryDepth() != 2 {
		t.Fatalf("accessors wrong: %v %d", p.Kind(), p.HistoryDepth())
	}
	if KindCosmos.String() != "Cosmos" || Kind(9).String() != "Kind(9)" {
		t.Fatal("kind strings wrong")
	}
	if MsgInvalid.String() != "-" {
		t.Fatal("invalid message string wrong")
	}
}

func TestPruneEdgeCases(t *testing.T) {
	// Pruning a prediction that has moved on to a write symbol is a no-op.
	p := NewMSP(1)
	feed(p, obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0))
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("no prediction")
	}
	// Advance so the entry now predicts a write.
	feed(p, obs(MsgRead, 2), obs(MsgWrite, 0))
	rp.Prune(1) // must not panic or corrupt
	// Pruning a node not in the prediction is a no-op.
	p2 := NewVMSP(1)
	feed(p2, obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0))
	rp2, ok := p2.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("no prediction")
	}
	rp2.Prune(7)
	if rp3, ok := p2.PredictReaders(blk, idxOf(blk)); !ok || !rp3.Readers.Has(1) {
		t.Fatal("pruning an absent node must not remove real readers")
	}
	// Empty prediction handles pruning.
	var empty ReadPrediction
	empty.Prune(1)
}

func TestPredictsUpgradeByEdgeCases(t *testing.T) {
	p := NewVMSP(1)
	if p.PredictsUpgradeBy(blk, idxOf(blk), 1) {
		t.Fatal("cold block predicts nothing")
	}
	// Migratory for VMSP: run {1} closed by upgrade from 1.
	for i := 0; i < 4; i++ {
		feed(p, obs(MsgRead, 1), obs(MsgUpgrade, 1), obs(MsgRead, 2), obs(MsgUpgrade, 2))
	}
	if !p.PredictsUpgradeBy(blk, idxOf(blk), 1) {
		t.Fatal("VMSP should predict the upgrade after reader 1 joins")
	}
	if p.PredictsUpgradeBy(blk, idxOf(blk), 7) {
		t.Fatal("unknown reader must not predict")
	}
	// A predicted READ successor is not an upgrade prediction.
	pc := NewMSP(1)
	feed(pc, obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgWrite, 0), obs(MsgRead, 1))
	if pc.PredictsUpgradeBy(blk, idxOf(blk), 1) {
		t.Fatal("read successor misclassified as upgrade")
	}
}

func TestAssumeReadersEdgeCases(t *testing.T) {
	p := NewMSP(1)
	p.AssumeReaders(blk, idxOf(blk), mem.ReaderVec{}) // empty vector: no-op, no allocation needed
	if c := p.Census(); c.Blocks != 0 {
		t.Fatal("empty assume must not allocate")
	}
	// MSP assume pushes read symbols so the next write is keyed off them.
	feed(p, obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0), obs(MsgRead, 1), obs(MsgWrite, 0))
	p.AssumeReaders(blk, idxOf(blk), mem.VecOf(1))
	out := p.Observe(blk, idxOf(blk), obs(MsgWrite, 0))
	if !out.Predicted || !out.Correct {
		t.Fatalf("write after assumed reader should hit the learned pattern: %+v", out)
	}
	// Retract on a cold predictor is a no-op.
	NewVMSP(1).RetractReader(idxOf(mem.MakeAddr(5, 5)), 1)
}

func TestObservationStringForms(t *testing.T) {
	if MsgRead.IsWriteLike() || !MsgWrite.IsWriteLike() || !MsgUpgrade.IsWriteLike() {
		t.Fatal("write-likeness wrong")
	}
	if !MsgRead.IsRequest() || MsgAckInv.IsRequest() || MsgWriteback.IsRequest() {
		t.Fatal("request classification wrong")
	}
}
