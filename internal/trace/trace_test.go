package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
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

// Read refuses a trace no machine could have recorded, naming the
// offending event, instead of handing it to a predictor that would panic
// on it or silently score it.
func TestReadRejectsMalformedTraces(t *testing.T) {
	home3 := mem.MakeAddr(3, 0)
	for _, tc := range []struct {
		name, trace, want string
	}{
		{"no nodes", `{"nodes":0,"events":[]}`, "node count 0 out of range"},
		{"too many nodes", `{"nodes":5000,"events":[]}`, "node count 5000 out of range"},
		{"source node", `{"nodes":4,"events":[{"c":1,"a":0,"t":1,"n":0},{"c":2,"a":0,"t":1,"n":3000}]}`, "event 1: source node 3000 of 4"},
		{"block home", `{"nodes":2,"events":[{"c":1,"a":` + strconv.FormatUint(uint64(home3), 10) + `,"t":1,"n":0}]}`, "event 0: block home 3 of 2"},
		{"type zero", `{"nodes":2,"events":[{"c":1,"a":0,"t":0,"n":0}]}`, "event 0: unknown message type 0"},
		{"type 200", `{"nodes":2,"events":[{"c":1,"a":0,"t":1,"n":0},{"c":1,"a":0,"t":1,"n":1},{"c":1,"a":0,"t":200,"n":0}]}`, "event 2: unknown message type 200"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(`{"format":1,"version":1,"trace":` + tc.trace + `}`))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read error %v, want one containing %q", err, tc.want)
			}
		})
	}
	// The largest well-formed values are accepted.
	ok := `{"format":1,"version":1,"trace":{"nodes":4096,"events":[{"c":1,"a":` +
		strconv.FormatUint(uint64(mem.MakeAddr(4095, 0)), 10) + `,"t":5,"n":4095}]}}`
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Fatalf("well-formed edge trace refused: %v", err)
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
