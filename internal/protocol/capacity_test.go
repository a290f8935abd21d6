package protocol

import (
	"math/rand"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

func capacityHarness(t *testing.T, nodes, capacity int, fr, swi bool) *harness {
	t.Helper()
	opts := make([]Options, nodes)
	for i := range opts {
		opts[i] = Options{CacheCapacity: capacity}
		if fr || swi {
			opts[i].Active = core.NewVMSP(1)
			opts[i].EnableFR = fr
			opts[i].EnableSWI = swi
		}
	}
	k := sim.NewKernel()
	sys := NewSystem(k, nodes, tableFlight, opts)
	return &harness{t: t, k: k, sys: sys}
}

func TestCapacityEvictsLRUSharedLine(t *testing.T) {
	h := capacityHarness(t, 2, 2, false, false)
	a := mem.MakeAddr(1, 0)
	b := mem.MakeAddr(1, 1)
	c := mem.MakeAddr(1, 2)
	h.read(0, a)
	h.read(0, b)
	h.read(0, c) // evicts a (LRU)
	cs := h.sys.Node(0).CacheStats()
	if cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cs.Evictions)
	}
	if cs.EvictionWritebacks != 0 {
		t.Fatal("shared eviction must be silent")
	}
	// a misses again; b (touched after a) may still be resident.
	if out := h.read(0, a); out.Class != ClassProtocol {
		t.Fatalf("evicted block should miss, got %+v", out)
	}
	h.finish()
}

func TestCapacityEvictionWritesBackExclusive(t *testing.T) {
	h := capacityHarness(t, 2, 1, false, false)
	a := mem.MakeAddr(1, 0)
	b := mem.MakeAddr(1, 1)
	h.write(0, a)
	view := h.sys.InspectEntry(a)
	if view.State != "Exclusive" || view.Owner != 0 {
		t.Fatalf("setup: %+v", view)
	}
	h.read(0, b) // evicts a, voluntary writeback
	h.k.Run(0)
	cs := h.sys.Node(0).CacheStats()
	if cs.EvictionWritebacks != 1 {
		t.Fatalf("eviction writebacks = %d, want 1", cs.EvictionWritebacks)
	}
	view = h.sys.InspectEntry(a)
	if view.State != "Idle" {
		t.Fatalf("directory after voluntary writeback: %+v", view)
	}
	// The block remains usable: the evictor re-reads it remotely (evicting
	// b in turn), and the home reads it locally.
	if out := h.read(0, a); out.Class != ClassProtocol {
		t.Fatalf("evictor re-read = %+v, want protocol", out)
	}
	if out := h.read(1, a); out.Class != ClassLocal {
		t.Fatalf("home read = %+v, want local", out)
	}
	h.finish()
}

func TestCapacityLocalFastPathRespectsBound(t *testing.T) {
	h := capacityHarness(t, 2, 2, false, false)
	for i := uint64(0); i < 6; i++ {
		h.write(0, mem.MakeAddr(0, i))
	}
	h.k.Run(0)
	cs := h.sys.Node(0).CacheStats()
	if cs.Evictions < 4 {
		t.Fatalf("evictions = %d, want >= 4", cs.Evictions)
	}
	h.finish()
}

func TestCapacityCrossingRecall(t *testing.T) {
	// Node 0 owns a; node 1 requests it at the same time node 0's
	// eviction writeback for a goes out: the recall crosses the
	// writeback, which doubles as its response.
	h := capacityHarness(t, 3, 1, false, false)
	a := mem.MakeAddr(2, 0)
	b := mem.MakeAddr(2, 1)
	h.write(0, a)
	done := 0
	// The read from node 1 recalls a from node 0, while node 0's next
	// access evicts a.
	h.sys.Node(1).Access(false, a, func(AccessOutcome) { done++ })
	h.sys.Node(0).Access(false, b, func(AccessOutcome) { done++ })
	h.k.Run(0)
	if done != 2 {
		t.Fatalf("completed %d", done)
	}
	h.finish()
}

func TestCapacityStressAllModes(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		fr, swi bool
	}{{"base", false, false}, {"fr", true, false}, {"swi", true, true}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			const nodes = 6
			h := capacityHarness(t, nodes, 4, cfg.fr, cfg.swi)
			rng := rand.New(rand.NewSource(13))
			blocks := make([]mem.BlockAddr, 30)
			for i := range blocks {
				blocks[i] = mem.MakeAddr(mem.NodeID(rng.Intn(nodes)), uint64(i))
			}
			for round := 0; round < 50; round++ {
				pending := 0
				for n := 0; n < nodes; n++ {
					addr := blocks[rng.Intn(len(blocks))]
					isWrite := rng.Intn(3) == 0
					pending++
					h.sys.Node(mem.NodeID(n)).Access(isWrite, addr, func(AccessOutcome) { pending-- })
				}
				h.k.Run(0)
				if pending != 0 {
					t.Fatalf("round %d: %d incomplete", round, pending)
				}
			}
			// Capacity misses must actually occur for this to test anything.
			var evictions uint64
			for n := 0; n < nodes; n++ {
				evictions += h.sys.Node(mem.NodeID(n)).CacheStats().Evictions
			}
			if evictions == 0 {
				t.Fatal("no evictions under a 4-line cache")
			}
			h.finish()
		})
	}
}

func TestCapacitySpecDataDeclinedWhenFull(t *testing.T) {
	h := capacityHarness(t, 4, 1, true, false)
	addr := mem.MakeAddr(0, 0)
	producerConsumerRound(h, addr)
	producerConsumerRound(h, addr)
	// Fill node 3's one-line cache with an unrelated block, then trigger
	// an FR forward toward it: the spec data must be declined, not
	// displace the demand line.
	other := mem.MakeAddr(1, 9)
	h.read(3, other)
	h.write(1, addr)
	h.read(2, addr) // FR forwards to node 3
	h.k.Run(0)
	cs := h.sys.Node(3).CacheStats()
	if cs.SpecDeclinedFull == 0 {
		t.Fatal("expected spec data declined due to full cache")
	}
	h.finish()
}
