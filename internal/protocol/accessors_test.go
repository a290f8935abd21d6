package protocol

import (
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/trace"
)

func TestSystemAccessors(t *testing.T) {
	h := newHarness(t, 3)
	if h.sys.Nodes() != 3 {
		t.Fatalf("Nodes = %d", h.sys.Nodes())
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

// Record captures every directory's incoming messages as one stream,
// in processing order and stamped with the kernel's cycle, until it is
// switched off.
func TestRecordCapturesDirectoryMessages(t *testing.T) {
	h := newHarness(t, 2)
	var tr trace.Trace
	h.sys.Record(&tr)
	a, b := mem.MakeAddr(1, 0), mem.MakeAddr(0, 0)
	h.read(0, a)  // remote read at home 1
	h.write(1, a) // local write at home 1; node 0's copy acks the invalidation
	h.read(1, b)  // remote read at home 0
	h.sys.Record(nil)
	h.read(0, b)
	want := []trace.Event{
		{Addr: uint64(a), Type: uint8(core.MsgRead), Node: 0},
		{Addr: uint64(a), Type: uint8(core.MsgWrite), Node: 1},
		{Addr: uint64(a), Type: uint8(core.MsgAckInv), Node: 0},
		{Addr: uint64(b), Type: uint8(core.MsgRead), Node: 1},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("recorded %+v, want %d events", tr.Events, len(want))
	}
	var last int64
	for i, e := range tr.Events {
		if e.Cycle <= last {
			t.Fatalf("event %d at cycle %d, after %d", i, e.Cycle, last)
		}
		last = e.Cycle
		e.Cycle = 0
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
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
