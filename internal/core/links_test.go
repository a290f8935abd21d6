package core

import (
	"fmt"
	"testing"
	"unsafe"

	"specdsm/internal/mem"
)

// TestLinkedLayoutSizes pins the record sizes the successor links were
// fitted into: succ rides in entryHot's former tail padding and cur/from
// in blockState's, so neither hot record grew.
func TestLinkedLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(entryHot{}); got != 16 {
		t.Errorf("entryHot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(blockState{}); got != 72 {
		t.Errorf("blockState is %d bytes, want 72", got)
	}
}

// keyLen returns the number of symbols a packed history holds: every
// pushed symbol has a non-zero type, so the filled slots are a prefix.
func keyLen(k patKey) int {
	n := 0
	for n < MaxDepth && uint16(k.tn>>(16*uint(n)))&symTypeMask != 0 {
		n++
	}
	return n
}

// checkLinks asserts the link invariants on every block in addrs and every
// entry of p: a resolved cur is what a fresh table probe of the block's
// history returns, from's history advanced by the newest symbol is the
// block's history, and a succ link is what a probe of the entry's history
// advanced by its own prediction returns.
func checkLinks(t *testing.T, p *TwoLevel, addrs []mem.BlockAddr) {
	t.Helper()
	s := p.store
	for _, addr := range addrs {
		bi, ok := p.blocks.Get(addr)
		if !ok {
			continue
		}
		bs := &p.blockStates[bi]
		want, found := p.table.lookup(s, patternKey{addr, bs.key})
		if bs.cur != noEntry && (!found || bs.cur != want) {
			t.Fatalf("block %v: cur %d, probe gives %d (found %v)", addr, bs.cur, want, found)
		}
		if bs.from != noEntry {
			fk := s.keys[bs.from]
			tn, vid := bs.newest()
			k := fk.key
			k.push(tn, vid, keyLen(k), p.depth)
			if fk.addr != addr || k != bs.key {
				t.Fatalf("block %v: from %d's history advanced by the newest symbol is not the block's history", addr, bs.from)
			}
		}
	}
	for i := range s.hot {
		succ := s.hot[i].succ
		if succ == noEntry {
			continue
		}
		if !s.predValid(int32(i)) {
			t.Fatalf("entry %d: succ %d on a cleared prediction", i, succ)
		}
		pk := s.keys[i]
		pk.key.push(s.hot[i].tn, s.hot[i].vec, keyLen(pk.key), p.depth)
		want, found := p.table.lookup(s, pk)
		if !found || want != succ {
			t.Fatalf("entry %d: succ %d, probe of the advanced history gives %d (found %v)", i, succ, want, found)
		}
	}
}

// unlink drops every cached resolution, so the next call on p probes the
// table for every history it needs — the behaviour of a predictor with no
// successor links at all.
func unlink(p *TwoLevel) {
	for i := range p.blockStates {
		p.blockStates[i].cur = noEntry
	}
	for i := range p.store.hot {
		p.store.hot[i].succ = noEntry
	}
}

// sameTables reports how p's pattern tables and block registers differ
// from ref's, ignoring only the link fields.
func sameTables(p, ref *TwoLevel) error {
	if len(p.store.keys) != len(ref.store.keys) || len(p.blockStates) != len(ref.blockStates) {
		return fmt.Errorf("entries %d/%d blocks %d/%d", len(p.store.keys), len(ref.store.keys),
			len(p.blockStates), len(ref.blockStates))
	}
	for i := range p.store.keys {
		a, b := p.store.hot[i], ref.store.hot[i]
		a.succ, b.succ = noEntry, noEntry
		if p.store.keys[i] != ref.store.keys[i] || a != b {
			return fmt.Errorf("entry %d differs", i)
		}
	}
	for i := range p.blockStates {
		a, b := &p.blockStates[i], &ref.blockStates[i]
		if a.key != b.key || a.n != b.n || a.lastWrite != b.lastWrite || !a.open.Equal(b.open) {
			return fmt.Errorf("block %d differs", i)
		}
	}
	return nil
}

// querySnapshot renders every speculation surface of p for addr, calling
// before ahead of each query.
func querySnapshot(p *TwoLevel, addr mem.BlockAddr, reader mem.NodeID, before func()) string {
	before()
	sym, ok := p.PredictNext(addr)
	s := fmt.Sprintf("next=%v,%v", sym, ok)
	before()
	rp, ok := p.PredictReaders(addr)
	s += fmt.Sprintf(" readers=%v,%v,%d", rp.Readers, ok, rp.n)
	for i := int32(0); i < rp.n; i++ {
		s += fmt.Sprintf(",%d", rp.entryAt(i))
	}
	before()
	s += fmt.Sprintf(" upg=%v", p.PredictsUpgradeBy(addr, reader))
	return s + fmt.Sprintf(" swi=%v", p.SWIAllowed(addr))
}

// FuzzObserveLinks drives a linked predictor and a twin whose links are all
// dropped before every call through the same random interleaving of every
// mutating surface, on narrow and mem.MaxNodes-wide predictors of every
// kind at depths 1-4. After every operation the link invariants must hold
// on both, and the two must agree on outcomes, Stats, Census, the pattern
// tables themselves, and every speculation surface: following a link must
// be indistinguishable from probing.
func FuzzObserveLinks(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x03, 0x00, 0x00, 0x01, 0x00, 0x01, 0x02, 0x02, 0x00, 0x01,
		0x0a, 0x00, 0x01, 0x0e, 0x00, 0x03, 0x02, 0x00, 0x03, 0x00, 0x00, 0x01}, uint8(0x01))
	f.Add([]byte{0x01, 0x00, 0x01, 0x07, 0x00, 0x05, 0x0a, 0x00, 0x06, 0x0b, 0x00, 0x05,
		0x0c, 0x00, 0x00, 0x0d, 0x00, 0x01, 0x01, 0x00, 0x01, 0x0f, 0x00, 0x00}, uint8(0x0e))
	f.Add([]byte{0x00, 0x01, 0x07, 0x08, 0x01, 0x06, 0x09, 0x01, 0x07, 0x00, 0x01, 0x03,
		0x0a, 0x01, 0x07, 0x05, 0x01, 0x05, 0x0e, 0x01, 0x06, 0x01, 0x02, 0x04}, uint8(0x1a))
	f.Fuzz(func(t *testing.T, data []byte, cfg uint8) {
		kind := Kind(cfg % 3)
		depth := int(cfg>>2)%MaxDepth + 1
		nodes := []mem.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
		width := mem.InlineNodes
		if cfg&0x10 != 0 {
			nodes = []mem.NodeID{0, 1, 2, 63, 64, 200, 1000, mem.MaxNodes - 1}
			width = mem.MaxNodes
		}
		p := NewSized(kind, depth, width)
		ref := NewSized(kind, depth, width)
		addrs := []mem.BlockAddr{mem.MakeAddr(0, 0x10), mem.MakeAddr(1, 0x20), mem.MakeAddr(2, 0x30)}

		for i := 0; i+2 < len(data) && i < 3*256; i += 3 {
			op, addr, node := data[i]%16, addrs[int(data[i+1])%len(addrs)], nodes[data[i+2]%8]
			other := nodes[(data[i+2]>>3)%8]
			unlink(ref)
			switch {
			case op < 7:
				o := Observation{Type: MsgType(int(data[i]>>4)%5 + 1), Node: node}
				if a, b := p.Observe(addr, o), ref.Observe(addr, o); a != b {
					t.Fatalf("op %d: Observe(%v, %v) = %+v, twin %+v", i/3, addr, o, a, b)
				}
			case op < 9:
				v := mem.VecOf(node, other)
				p.AssumeReaders(addr, v)
				ref.AssumeReaders(addr, v)
			case op == 9:
				p.RetractReader(addr, node)
				ref.RetractReader(addr, node)
			case op < 12:
				a, aok := p.PredictReaders(addr)
				b, bok := ref.PredictReaders(addr)
				if aok != bok || !a.Readers.Equal(b.Readers) {
					t.Fatalf("op %d: PredictReaders(%v) = %v,%v, twin %v,%v", i/3, addr, a.Readers, aok, b.Readers, bok)
				}
				a.Prune(node)
				b.Prune(node)
			case op == 12:
				p.SWIGuard(addr).MarkPremature()
				ref.SWIGuard(addr).MarkPremature()
			case op == 13:
				p.SetConfidenceThreshold(int(data[i+2] % 4))
				ref.SetConfidenceThreshold(int(data[i+2] % 4))
			case op == 14:
				if a, b := querySnapshot(p, addr, node, func() {}), querySnapshot(ref, addr, node, func() { unlink(ref) }); a != b {
					t.Fatalf("op %d: surfaces of %v:\n linked %s\n twin   %s", i/3, addr, a, b)
				}
			default:
				if data[i+2]%4 == 0 {
					p.Reset()
					ref.Reset()
				}
			}
			checkLinks(t, p, addrs)
			checkLinks(t, ref, addrs)
			if p.Stats() != ref.Stats() || p.Census() != ref.Census() {
				t.Fatalf("op %d: stats %+v census %+v, twin %+v %+v", i/3, p.Stats(), p.Census(), ref.Stats(), ref.Census())
			}
			if err := sameTables(p, ref); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		for _, addr := range addrs {
			if a, b := querySnapshot(p, addr, nodes[1], func() {}), querySnapshot(ref, addr, nodes[1], func() { unlink(ref) }); a != b {
				t.Fatalf("final surfaces of %v:\n linked %s\n twin   %s", addr, a, b)
			}
		}
	})
}
