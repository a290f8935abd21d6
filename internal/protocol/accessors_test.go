package protocol

import (
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
)

func TestSystemAccessors(t *testing.T) {
	h := newHarness(t, 3)
	if h.sys.Nodes() != 3 {
		t.Fatalf("Nodes = %d", h.sys.Nodes())
	}
	if h.sys.Kernel() != h.k {
		t.Fatal("Kernel accessor wrong")
	}
	n := h.sys.Node(2)
	if n.ID() != 2 {
		t.Fatalf("node ID = %d", n.ID())
	}
}

func TestAccessClassStrings(t *testing.T) {
	want := map[AccessClass]string{
		ClassHit:       "hit",
		ClassSpecHit:   "spec-hit",
		ClassLocal:     "local",
		ClassProtocol:  "protocol",
		AccessClass(9): "?",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestSetCoherenceCheckingOff(t *testing.T) {
	h := newHarness(t, 2)
	h.sys.SetCoherenceChecking(false)
	h.read(0, mem.MakeAddr(1, 0))
	h.write(1, mem.MakeAddr(0, 0))
	if len(h.sys.Violations()) != 0 {
		t.Fatal("checker disabled but recorded violations")
	}
}

func TestAddObserverOnNode(t *testing.T) {
	h := newHarness(t, 2)
	p := core.NewMSP(1)
	h.sys.Node(1).AddObserver(p)
	// Traffic to node 1's home blocks reaches the added observer.
	h.read(0, mem.MakeAddr(1, 0))
	if p.Stats().Tracked == 0 {
		t.Fatal("added observer saw nothing")
	}
	// Traffic to node 0's home does not (observer attached at node 1 only).
	before := p.Stats().Tracked
	h.read(1, mem.MakeAddr(0, 0))
	if p.Stats().Tracked != before {
		t.Fatal("observer saw traffic for another node's directory")
	}
	h.finish()
}

func TestSweepUnreferencedSpec(t *testing.T) {
	h := specHarness(t, true, false)
	addr := mem.MakeAddr(0, 0)
	producerConsumerRound(h, addr)
	producerConsumerRound(h, addr)
	// Trigger a forward to node 3 but end the run before it reads.
	h.write(1, addr)
	h.read(2, addr)
	h.k.Run(0)
	total := uint64(0)
	for n := 0; n < 4; n++ {
		total += h.sys.Node(mem.NodeID(n)).SweepUnreferencedSpec()
	}
	if total == 0 {
		t.Fatal("expected an unreferenced speculative line at end of run")
	}
}
