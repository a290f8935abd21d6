package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

func sampleTrace() *Trace {
	t := &Trace{Workload: "test", Nodes: 4, Seed: 7}
	rng := rand.New(rand.NewSource(3))
	blocks := []mem.BlockAddr{
		mem.MakeAddr(0, 1), mem.MakeAddr(1, 2), mem.MakeAddr(2, 3),
	}
	types := []core.MsgType{core.MsgRead, core.MsgWrite, core.MsgUpgrade, core.MsgAckInv, core.MsgWriteback}
	for i := 0; i < 500; i++ {
		t.Events = append(t.Events, Event{
			Cycle: int64(i * 10),
			Addr:  uint64(blocks[rng.Intn(len(blocks))]),
			Type:  uint8(types[rng.Intn(len(types))]),
			Node:  uint16(rng.Intn(4)),
		})
	}
	return t
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Read(strings.NewReader(`{"format":99,"trace":{"nodes":1}}`)); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := Read(strings.NewReader(`{"format":1}`)); err == nil {
		t.Fatal("expected empty-envelope error")
	}
}

func TestBlocksCount(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Blocks(); got != 3 {
		t.Fatalf("Blocks = %d, want 3", got)
	}
}

func TestRecorderCaptures(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, "wl", 4, 9)
	addr := mem.MakeAddr(1, 5)
	k.At(100, func() {
		r.Observe(addr, 0, core.Observation{Type: core.MsgRead, Node: 2})
	})
	k.Run(0)
	tr := r.Trace()
	if len(tr.Events) != 1 {
		t.Fatalf("%d events", len(tr.Events))
	}
	e := tr.Events[0]
	if e.Cycle != 100 || e.Addr != uint64(addr) || core.MsgType(e.Type) != core.MsgRead || e.Node != 2 {
		t.Fatalf("event = %+v", e)
	}
	if tr.Workload != "wl" || tr.Nodes != 4 || tr.Seed != 9 {
		t.Fatalf("metadata = %+v", tr)
	}
}

func TestRecorderIsInertPredictor(t *testing.T) {
	r := NewRecorder(nil, "", 2, 0)
	addr := mem.MakeAddr(0, 0)
	if out := r.Observe(addr, 0, core.Observation{Type: core.MsgRead, Node: 1}); out != (core.Outcome{}) {
		t.Fatalf("recorder scored a message: %+v", out)
	}
}

// The defining property: replaying a captured stream into a predictor
// produces exactly the stats an identical predictor accumulated online.
func TestReplayMatchesOnlineObservation(t *testing.T) {
	tr := sampleTrace()
	online := core.NewVMSP(1)
	// Online: feed observations directly (as a directory would), with a
	// block numbering unlike Replay's: each home numbers its own blocks
	// from home*64, so the result cannot depend on which indices name
	// the blocks.
	idx := map[mem.BlockAddr]int32{}
	perHome := map[mem.NodeID]int32{}
	for _, e := range tr.Events {
		addr := mem.BlockAddr(e.Addr)
		bi, ok := idx[addr]
		if !ok {
			bi = int32(addr.Home())*64 + perHome[addr.Home()]
			perHome[addr.Home()]++
			idx[addr] = bi
		}
		online.Observe(addr, bi, core.Observation{
			Type: core.MsgType(e.Type),
			Node: mem.NodeID(e.Node),
		})
	}
	offline := core.NewVMSP(1)
	Replay(tr, offline)
	if online.Stats() != offline.Stats() {
		t.Fatalf("stats diverge: online %+v offline %+v", online.Stats(), offline.Stats())
	}
	if online.Census() != offline.Census() {
		t.Fatalf("census diverges: %+v vs %+v", online.Census(), offline.Census())
	}
}

func TestReplayMultiplePredictors(t *testing.T) {
	tr := sampleTrace()
	cosmos := core.NewCosmos(1)
	msp := core.NewMSP(2)
	Replay(tr, cosmos, msp)
	if cosmos.Stats().Tracked == 0 || msp.Stats().Tracked == 0 {
		t.Fatal("predictors saw nothing")
	}
	if cosmos.Stats().Tracked <= msp.Stats().Tracked {
		t.Fatal("Cosmos must track more (acks)")
	}
}
