package protocol

import (
	"testing"

	"specdsm/internal/mem"
)

// BenchmarkDirectoryServe measures one full steady-state serve cycle
// (read recall, shared grant, upgrade invalidation, write recall) against
// a warm directory entry — the protocol-side hot path of every study.
// The alloc guard in alloc_test.go pins this at 0 allocs/op.
func BenchmarkDirectoryServe(b *testing.B) {
	h := newAllocHarness(3)
	addr := mem.MakeAddr(0, 1)
	for i := 0; i < 10; i++ {
		h.serveCycle(addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.serveCycle(addr)
	}
}

// BenchmarkCacheHit measures one read hit plus one store hit, completion
// callback included — the most frequent operation in the simulator.
func BenchmarkCacheHit(b *testing.B) {
	benchCacheHit(b, true)
}

// BenchmarkCacheHitUnchecked is BenchmarkCacheHit with the coherence
// checker off; the gap between the two is the checker's per-hit cost.
func BenchmarkCacheHitUnchecked(b *testing.B) {
	benchCacheHit(b, false)
}

func benchCacheHit(b *testing.B, checking bool) {
	h := newAllocHarness(2)
	h.sys.SetCoherenceChecking(checking)
	rd := mem.MakeAddr(1, 1)
	wr := mem.MakeAddr(1, 2)
	for i := 0; i < 20; i++ {
		h.access(0, false, rd)
		h.access(0, true, wr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.access(0, false, rd)
		h.access(0, true, wr)
	}
}
