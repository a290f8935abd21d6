package core

import (
	"fmt"
	"testing"

	"specdsm/internal/mem"
)

// TestWideVMSPReadRunPrediction drives the paper's producer-consumer
// pattern with readers beyond the inline tier (nodes 100, 200, 1000) on a
// predictor sized for 1024 nodes: the read-run vector must be learned,
// predicted, and scored exactly as at narrow widths.
func TestWideVMSPReadRunPrediction(t *testing.T) {
	p := NewSized(KindVMSP, 1, 1024)
	readers := []mem.NodeID{100, 200, 1000}
	iter := []Observation{obs(MsgWrite, 0)}
	for _, r := range readers {
		iter = append(iter, obs(MsgRead, r))
	}
	// Two iterations teach (write → run) and (run → write); the third is
	// fully predicted.
	var outs []Outcome
	for i := 0; i < 3; i++ {
		outs = append(outs, feed(p, iter...)...)
	}
	last := outs[len(outs)-len(readers):]
	for i, out := range last {
		if !out.Predicted || !out.Correct {
			t.Fatalf("iteration 3 read %d: outcome %+v, want predicted+correct", i, out)
		}
	}
	rp, ok := p.PredictReaders(blk, idxOf(blk))
	if !ok {
		t.Fatal("no read prediction after the write pattern")
	}
	if !rp.Readers.Equal(mem.VecOf(readers...)) {
		t.Fatalf("predicted readers %v, want %v", rp.Readers, mem.VecOf(readers...))
	}
}

// TestWideNarrowObservationEquivalence pins the ≤64-node equivalence
// contract at the predictor level: a wide-sized predictor fed only narrow
// nodes must produce outcome-for-outcome identical results to New's
// narrow one, for every kind and depth.
func TestWideNarrowObservationEquivalence(t *testing.T) {
	seq := []Observation{
		obs(MsgWrite, 3), obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgUpgrade, 3),
		obs(MsgAckInv, 1), obs(MsgAckInv, 2), obs(MsgRead, 1), obs(MsgRead, 2),
		obs(MsgUpgrade, 3), obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgWrite, 5),
		obs(MsgRead, 1), obs(MsgRead, 2), obs(MsgWrite, 5),
	}
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		for _, depth := range []int{1, 2, 4} {
			narrow := New(kind, depth)
			wide := NewSized(kind, depth, mem.MaxNodes)
			for i := 0; i < 4; i++ {
				for _, o := range seq {
					a := narrow.Observe(blk, idxOf(blk), o)
					b := wide.Observe(blk, idxOf(blk), o)
					if a != b {
						t.Fatalf("%v d=%d: outcome diverged on %v: %+v vs %+v", kind, depth, o, a, b)
					}
				}
			}
			if narrow.Stats() != wide.Stats() {
				t.Fatalf("%v d=%d: stats diverged: %+v vs %+v", kind, depth, narrow.Stats(), wide.Stats())
			}
			ns, nok := narrow.PredictNext(blk, idxOf(blk))
			ws, wok := wide.PredictNext(blk, idxOf(blk))
			if nok != wok || !ns.Equal(ws) {
				t.Fatalf("%v d=%d: PredictNext diverged", kind, depth)
			}
		}
	}
}

// TestWideResetEquivalence mirrors reset_test.go at width 256: a reset
// wide predictor (interner included) must answer exactly like a fresh one.
func TestWideResetEquivalence(t *testing.T) {
	seq := func(p Predictor) []Outcome {
		var outs []Outcome
		for i := 0; i < 3; i++ {
			outs = append(outs, feed(p,
				obs(MsgWrite, 70), obs(MsgRead, 100), obs(MsgRead, 255),
				obs(MsgUpgrade, 70), obs(MsgRead, 100), obs(MsgRead, 255))...)
		}
		return outs
	}
	fresh := NewSized(KindVMSP, 2, 256)
	reused := NewSized(KindVMSP, 2, 256)
	// Dirty the reused predictor with a different wide pattern, then Reset.
	feed(reused, obs(MsgWrite, 200), obs(MsgRead, 64), obs(MsgRead, 65), obs(MsgWrite, 200))
	reused.Reset()
	a, b := seq(fresh), seq(reused)
	if len(a) != len(b) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if fresh.Stats() != reused.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", fresh.Stats(), reused.Stats())
	}
}

// FuzzPatKeyPack checks the packed pattern-key encoding against a
// map-backed oracle at mixed widths: pushing symbol sequences must stay a
// bijection (equal keys ⟺ equal recent-window sequences), and the
// open-addressed patTable must agree with a reference map on every
// insert/lookup.
func FuzzPatKeyPack(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x00, 0x40, 0x01, 0x04, 0x00, 0x10, 0x00}, uint8(1))
	f.Add([]byte{0x00, 0x01, 0x00, 0x03, 0x03, 0x02, 0x01, 0x00, 0x02}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, depthRaw uint8) {
		depth := int(depthRaw)%MaxDepth + 1
		if len(data) == 0 {
			return
		}
		wide := data[0]&1 == 1
		width := mem.NodeID(mem.InlineNodes)
		store := &entryStore{}
		if wide {
			width = mem.MaxNodes
			store.vecs = &vecIntern{}
		}
		table := patTable{vecKeys: true}
		refTable := map[patternKey]int32{}
		addr := mem.MakeAddr(0, 1)

		var key patKey
		have := 0
		var window []string
		keyBySeq := map[string]patKey{}
		seqByKey := map[patKey]string{}
		for i := 1; i+3 < len(data); i += 4 {
			typ := MsgType(data[i]%5 + 1)
			node := mem.NodeID(uint16(data[i+1])<<8|uint16(data[i+2])) % width
			var vec mem.ReaderVec
			if typ == MsgRead && data[i+3]&1 == 1 {
				vec = mem.VecOf(node, mem.NodeID(data[i+3])%width)
				node = 0
			}
			sym := Symbol{Type: typ, Node: node, Vec: vec}
			tn, vid := sym.pack(), store.vecID(sym.Vec)
			have = key.push(tn, vid, have, depth)
			window = append(window, sym.String())
			if len(window) > depth {
				window = window[1:]
			}
			seq := fmt.Sprint(window)
			if k, seen := keyBySeq[seq]; seen {
				if k != key {
					t.Fatalf("sequence %s packed to two keys", seq)
				}
			} else {
				keyBySeq[seq] = key
			}
			if s, seen := seqByKey[key]; seen {
				if s != seq {
					t.Fatalf("key collision: %s and %s pack equally", s, seq)
				}
			} else {
				seqByKey[key] = seq
			}
			pk := patternKey{addr, key}
			if idx, ok := table.lookup(store, pk); ok {
				if want, seen := refTable[pk]; !seen || want != idx {
					t.Fatalf("lookup(%v) = %d, oracle has %d", pk, idx, want)
				}
			} else {
				if _, seen := refTable[pk]; seen {
					t.Fatalf("table lost key %v", pk)
				}
				idx := store.alloc(pk, tn, vid)
				table.insert(store, pk, idx)
				refTable[pk] = idx
			}
		}
		for pk, want := range refTable {
			got, ok := table.lookup(store, pk)
			if !ok || got != want {
				t.Fatalf("final lookup(%v) = %d,%v, oracle has %d", pk, got, ok, want)
			}
		}
	})
}
