package protocol

import (
	"math/rand"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
	"specdsm/internal/trace"
)

// tableFlight is Table 1's 80-cycle network flight latency.
const tableFlight sim.Cycle = 80

type harness struct {
	t   *testing.T
	k   *sim.Kernel
	sys *System
}

func newHarness(t *testing.T, n int, opts ...Options) *harness {
	t.Helper()
	k := sim.NewKernel()
	sys := NewSystem(k, n, tableFlight, opts)
	return &harness{t: t, k: k, sys: sys}
}

// access issues one access and runs the simulation until it completes.
func (h *harness) access(node mem.NodeID, isWrite bool, addr mem.BlockAddr) AccessOutcome {
	h.t.Helper()
	var out AccessOutcome
	fired := false
	h.sys.Node(node).Access(isWrite, addr, func(o AccessOutcome) {
		out = o
		fired = true
	})
	h.k.Run(0)
	if !fired {
		h.t.Fatalf("access by node %d to %v never completed", node, addr)
	}
	return out
}

func (h *harness) read(node mem.NodeID, addr mem.BlockAddr) AccessOutcome {
	h.t.Helper()
	return h.access(node, false, addr)
}

func (h *harness) write(node mem.NodeID, addr mem.BlockAddr) AccessOutcome {
	h.t.Helper()
	return h.access(node, true, addr)
}

// finish drains the event queue and asserts coherence, quiescence, and
// cache/directory consistency.
func (h *harness) finish() {
	h.t.Helper()
	h.k.Run(0)
	if v := h.sys.Violations(); len(v) != 0 {
		h.t.Fatalf("coherence violations: %v", v)
	}
	if err := h.sys.CheckQuiescent(); err != nil {
		h.t.Fatal(err)
	}
	if err := h.sys.AuditConsistency(); err != nil {
		h.t.Fatal(err)
	}
}

func TestRemoteCleanReadIs418Cycles(t *testing.T) {
	h := newHarness(t, 2)
	addr := mem.MakeAddr(1, 0) // homed at node 1, read by node 0
	out := h.read(0, addr)
	if out.Class != ClassProtocol {
		t.Fatalf("class = %v, want protocol", out.Class)
	}
	if out.Latency != 418 {
		t.Fatalf("clean remote read latency = %d, want 418 (Table 1)", out.Latency)
	}
	h.finish()
}

func TestLocalAccessIs104Cycles(t *testing.T) {
	h := newHarness(t, 2)
	addr := mem.MakeAddr(0, 0)
	out := h.read(0, addr)
	if out.Class != ClassLocal || out.Latency != 104 {
		t.Fatalf("local read = %+v, want local/104 (Table 1)", out)
	}
	out = h.write(0, mem.MakeAddr(0, 1))
	if out.Class != ClassLocal || out.Latency != 104 {
		t.Fatalf("local write = %+v, want local/104", out)
	}
	h.finish()
}

func TestRemoteToLocalRatioIsAboutFour(t *testing.T) {
	h := newHarness(t, 2)
	remote := h.read(0, mem.MakeAddr(1, 0)).Latency
	local := h.read(0, mem.MakeAddr(0, 0)).Latency
	rtl := float64(remote) / float64(local)
	if rtl < 3.5 || rtl > 4.5 {
		t.Fatalf("rtl = %.2f, want ~4 (Table 1)", rtl)
	}
	h.finish()
}

func TestCacheHitAfterFill(t *testing.T) {
	h := newHarness(t, 2)
	addr := mem.MakeAddr(1, 0)
	h.read(0, addr)
	out := h.read(0, addr)
	if out.Class != ClassHit || out.Latency != 1 {
		t.Fatalf("second read = %+v, want hit/1", out)
	}
	h.finish()
}

func TestReadFromExclusiveRecallsOwner(t *testing.T) {
	h := newHarness(t, 3)
	addr := mem.MakeAddr(0, 0)
	h.write(1, addr) // node 1 becomes exclusive owner
	view := h.sys.InspectEntry(addr)
	if view.State != "Exclusive" || view.Owner != 1 {
		t.Fatalf("after write: %+v", view)
	}
	out := h.read(2, addr)
	if out.Class != ClassProtocol {
		t.Fatalf("read class = %v", out.Class)
	}
	// 3-hop: must cost more than a clean 2-hop read.
	if out.Latency <= 418 {
		t.Fatalf("3-hop read latency = %d, should exceed 418", out.Latency)
	}
	view = h.sys.InspectEntry(addr)
	if view.State != "Shared" || !view.Sharers.Has(2) || view.Sharers.Has(1) {
		t.Fatalf("after recall: %+v", view)
	}
	// The former owner's next access misses (its copy was invalidated).
	out = h.read(1, addr)
	if out.Class != ClassProtocol {
		t.Fatalf("former owner read = %+v, want protocol (copy recalled)", out)
	}
	h.finish()
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := newHarness(t, 4)
	addr := mem.MakeAddr(0, 0)
	h.read(1, addr)
	h.read(2, addr)
	h.read(3, addr)
	if got := h.sys.InspectEntry(addr).Sharers.Count(); got != 3 {
		t.Fatalf("sharers = %d, want 3", got)
	}
	h.write(1, addr) // upgrade: 1 holds a read-only copy
	view := h.sys.InspectEntry(addr)
	if view.State != "Exclusive" || view.Owner != 1 {
		t.Fatalf("after upgrade: %+v", view)
	}
	st := h.sys.Node(0).DirStats()
	if st.Upgrades != 1 {
		t.Fatalf("upgrade count = %d", st.Upgrades)
	}
	if st.InvalsSent != 2 || st.AcksReceived != 2 {
		t.Fatalf("invals/acks = %d/%d, want 2/2", st.InvalsSent, st.AcksReceived)
	}
	if st.UpgradeGrants != 1 {
		t.Fatalf("upgrade grants = %d, want 1 (requester kept its copy)", st.UpgradeGrants)
	}
	// Invalidated sharers miss on their next access.
	if out := h.read(2, addr); out.Class != ClassProtocol {
		t.Fatalf("invalidated sharer read = %+v", out)
	}
	h.finish()
}

func TestWriteMissFromExclusive(t *testing.T) {
	h := newHarness(t, 3)
	addr := mem.MakeAddr(0, 0)
	h.write(1, addr)
	h.write(2, addr) // write-recall path
	view := h.sys.InspectEntry(addr)
	if view.State != "Exclusive" || view.Owner != 2 {
		t.Fatalf("after second write: %+v", view)
	}
	if view.Version != 2 {
		t.Fatalf("version = %d, want 2", view.Version)
	}
	h.finish()
}

func TestVersionMonotonicityAcrossOwners(t *testing.T) {
	h := newHarness(t, 4)
	addr := mem.MakeAddr(3, 7)
	for i := 0; i < 5; i++ {
		h.write(mem.NodeID(i%3), addr)
		h.read(mem.NodeID((i+1)%3), addr)
	}
	if got := h.sys.InspectEntry(addr).Version; got != 5 {
		t.Fatalf("version = %d, want 5", got)
	}
	h.finish()
}

func TestConcurrentReadersQueueAtDirectory(t *testing.T) {
	h := newHarness(t, 4)
	addr := mem.MakeAddr(0, 0)
	done := 0
	for n := mem.NodeID(1); n <= 3; n++ {
		h.sys.Node(n).Access(false, addr, func(AccessOutcome) { done++ })
	}
	h.k.Run(0)
	if done != 3 {
		t.Fatalf("completed %d reads, want 3", done)
	}
	view := h.sys.InspectEntry(addr)
	if view.Sharers.Count() != 3 || view.State != "Shared" {
		t.Fatalf("entry = %+v", view)
	}
	h.finish()
}

func TestConcurrentWritersSerialize(t *testing.T) {
	h := newHarness(t, 4)
	addr := mem.MakeAddr(0, 0)
	done := 0
	for n := mem.NodeID(1); n <= 3; n++ {
		h.sys.Node(n).Access(true, addr, func(AccessOutcome) { done++ })
	}
	h.k.Run(0)
	if done != 3 {
		t.Fatalf("completed %d writes, want 3", done)
	}
	view := h.sys.InspectEntry(addr)
	if view.State != "Exclusive" || view.Version != 3 {
		t.Fatalf("entry = %+v, want exclusive at version 3", view)
	}
	h.finish()
}

func TestReadWriteRace(t *testing.T) {
	// A reader and a writer race for the same block; the reader may be
	// invalidated mid-fill (use-once rule) but coherence must hold.
	h := newHarness(t, 3)
	addr := mem.MakeAddr(0, 0)
	done := 0
	h.sys.Node(1).Access(false, addr, func(AccessOutcome) { done++ })
	h.sys.Node(2).Access(true, addr, func(AccessOutcome) { done++ })
	h.k.Run(0)
	if done != 2 {
		t.Fatalf("completed %d, want 2", done)
	}
	h.finish()
}

// specHarness builds a 4-node system with an active VMSP at every node.
func specHarness(t *testing.T, fr, swi bool) *harness {
	opts := make([]Options, 4)
	for i := range opts {
		opts[i] = Options{
			Active:    core.NewVMSP(1),
			EnableFR:  fr,
			EnableSWI: swi,
		}
	}
	return newHarness(t, 4, opts...)
}

// producerConsumerRound: node 1 writes the block, nodes 2 and 3 read it.
func producerConsumerRound(h *harness, addr mem.BlockAddr) {
	h.write(1, addr)
	h.read(2, addr)
	h.read(3, addr)
}

func TestFRForwardsToSecondReader(t *testing.T) {
	h := specHarness(t, true, false)
	addr := mem.MakeAddr(0, 0)
	// Two training rounds to learn Write(1) -> Read{2,3}.
	producerConsumerRound(h, addr)
	producerConsumerRound(h, addr)
	// Third round: the first read triggers forwarding to node 3.
	h.write(1, addr)
	out2 := h.read(2, addr)
	if out2.Class != ClassProtocol {
		t.Fatalf("first reader should pay the remote latency, got %+v", out2)
	}
	out3 := h.read(3, addr)
	if out3.Class != ClassSpecHit {
		t.Fatalf("second reader = %+v, want spec-hit (FR forward)", out3)
	}
	if out3.Latency != 1 {
		t.Fatalf("spec hit latency = %d, want 1", out3.Latency)
	}
	st := h.sys.Node(0).DirStats()
	if st.SpecReadsFR == 0 {
		t.Fatal("no FR speculative reads recorded")
	}
	if st.SpecReadsSWI != 0 {
		t.Fatalf("SWI reads = %d in FR-only mode", st.SpecReadsSWI)
	}
	h.finish()
}

// swiRound: producer (node 1) writes two blocks homed at node 0, then the
// consumers read them. The write to B tells the EWI table the producer is
// done with A (and vice versa next round). Both blocks have readers, so
// neither SWI is premature.
func swiRound(h *harness, a, b mem.BlockAddr) {
	h.write(1, a)
	h.write(1, b)
	h.read(2, a)
	h.read(3, a)
	h.read(2, b)
}

func TestSWIInvalidatesEarlyAndForwards(t *testing.T) {
	h := specHarness(t, true, true)
	a := mem.MakeAddr(0, 0)
	b := mem.MakeAddr(0, 1)
	swiRound(h, a, b)
	swiRound(h, a, b)
	// Third round: after the write to B, block A is speculatively
	// invalidated and forwarded to both predicted readers.
	h.write(1, a)
	h.write(1, b)
	h.k.Run(0) // let the SWI recall and forwards complete
	out2 := h.read(2, a)
	out3 := h.read(3, a)
	if out2.Class != ClassSpecHit || out3.Class != ClassSpecHit {
		t.Fatalf("readers = %v/%v, want spec-hit/spec-hit (SWI forward)", out2.Class, out3.Class)
	}
	st := h.sys.Node(0).DirStats()
	if st.SWIRecalls == 0 {
		t.Fatal("no SWI recalls recorded")
	}
	if st.SpecReadsSWI < 2 {
		t.Fatalf("SWI spec reads = %d, want >= 2", st.SpecReadsSWI)
	}
	if st.SWIPremature != 0 {
		t.Fatalf("premature SWI = %d, want 0 (both blocks have consumers)", st.SWIPremature)
	}
	h.finish()
}

func TestSWINeedsReadPrediction(t *testing.T) {
	h := specHarness(t, true, true)
	a := mem.MakeAddr(0, 0)
	b := mem.MakeAddr(0, 1)
	// No block is ever read, so no read sequence is ever predicted — SWI
	// has nothing to trigger and must not fire at all (§4.1: SWI exists to
	// trigger speculation for the consumers' reads).
	for i := 0; i < 5; i++ {
		h.write(1, a)
		h.write(1, b)
		h.k.Run(0)
	}
	st := h.sys.Node(0).DirStats()
	if st.SWIRecalls != 0 {
		t.Fatalf("SWI fired %d times with no read predictions", st.SWIRecalls)
	}
	h.finish()
}

func TestSWIPrematureSuppressed(t *testing.T) {
	h := specHarness(t, true, true)
	a := mem.MakeAddr(0, 0)
	b := mem.MakeAddr(0, 1)
	// Train read predictions for both blocks.
	for i := 0; i < 2; i++ {
		h.write(1, a)
		h.write(1, b)
		h.read(2, a)
		h.read(2, b)
	}
	// Now the producer starts re-reading its freshly written blocks: every
	// SWI recall is premature. The premature bit is per pattern-table
	// entry, so SWI activity must die out rather than repeat forever.
	var lastRecalls, lastPremature uint64
	for i := 0; i < 6; i++ {
		h.write(1, a)
		h.write(1, b)
		h.k.Run(0)
		h.read(1, a)
		h.read(1, b)
		h.k.Run(0)
		st := h.sys.Node(0).DirStats()
		lastRecalls, lastPremature = st.SWIRecalls, st.SWIPremature
	}
	if lastPremature == 0 {
		t.Fatal("expected premature SWI detections")
	}
	// Steady state: two more rounds must not add SWI activity.
	for i := 0; i < 2; i++ {
		h.write(1, a)
		h.write(1, b)
		h.k.Run(0)
		h.read(1, a)
		h.read(1, b)
		h.k.Run(0)
	}
	st := h.sys.Node(0).DirStats()
	if st.SWIRecalls != lastRecalls || st.SWIPremature != lastPremature {
		t.Fatalf("SWI still firing in steady state: recalls %d->%d premature %d->%d",
			lastRecalls, st.SWIRecalls, lastPremature, st.SWIPremature)
	}
	h.finish()
}

func TestSpecMisspeculationPrunesPrediction(t *testing.T) {
	h := specHarness(t, true, false)
	addr := mem.MakeAddr(0, 0)
	// Train Write(1) -> Read{2,3}.
	producerConsumerRound(h, addr)
	producerConsumerRound(h, addr)
	// Now node 3 stops reading. Round: write, read by 2 (forwards to 3
	// speculatively), write again (invalidates 3's unused copy).
	h.write(1, addr)
	h.read(2, addr)
	h.write(1, addr)
	h.k.Run(0)
	st := h.sys.Node(0).DirStats()
	if st.SpecReadUnused == 0 {
		t.Fatal("unused speculative copy not detected")
	}
	// Next round: node 3 must no longer receive speculative copies.
	before := h.sys.Node(0).DirStats().SpecReadsFR
	h.read(2, addr)
	h.k.Run(0)
	after := h.sys.Node(0).DirStats().SpecReadsFR
	if after != before {
		t.Fatalf("prediction not pruned: FR forwards went %d -> %d", before, after)
	}
	h.finish()
}

func TestSpecDataDroppedOnRaceWithInFlightRead(t *testing.T) {
	h := specHarness(t, true, false)
	addr := mem.MakeAddr(0, 0)
	producerConsumerRound(h, addr)
	producerConsumerRound(h, addr)
	h.write(1, addr)
	// Issue both reads concurrently: node 3's read is in flight when the
	// FR forward (triggered by node 2's read) arrives, so the speculative
	// copy is dropped and the real response is used.
	done := 0
	h.sys.Node(2).Access(false, addr, func(AccessOutcome) { done++ })
	h.sys.Node(3).Access(false, addr, func(AccessOutcome) { done++ })
	h.k.Run(0)
	if done != 2 {
		t.Fatalf("completed %d reads", done)
	}
	cs := h.sys.Node(3).CacheStats()
	if cs.SpecDropped == 0 {
		t.Fatal("expected the raced speculative copy to be dropped")
	}
	h.finish()
}

func TestSpeculativeUpgradeExtension(t *testing.T) {
	opts := make([]Options, 3)
	for i := range opts {
		opts[i] = Options{Active: core.NewMSP(1), EnableSpecUpgrade: true}
	}
	h := newHarness(t, 3, opts...)
	addr := mem.MakeAddr(0, 0)
	// Migratory pattern: each node reads then writes.
	migrate := func(n mem.NodeID) {
		h.read(n, addr)
		h.write(n, addr)
	}
	for i := 0; i < 3; i++ {
		migrate(1)
		migrate(2)
	}
	st := h.sys.Node(0).DirStats()
	if st.SpecUpgrades == 0 {
		t.Fatal("speculative upgrades never fired for migratory pattern")
	}
	// Once granted exclusively on a read, the subsequent write hits.
	h.read(1, addr)
	out := h.write(1, addr)
	if out.Class != ClassHit {
		t.Fatalf("write after spec-upgraded read = %+v, want hit", out)
	}
	h.finish()
}

func TestRandomStressCoherence(t *testing.T) {
	// Randomized accesses across nodes and blocks with all speculation
	// enabled; the version checker and quiescence assertions must hold.
	for _, cfg := range []struct {
		name    string
		fr, swi bool
	}{
		{"base", false, false},
		{"fr", true, false},
		{"swi", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			const nodes = 8
			opts := make([]Options, nodes)
			for i := range opts {
				opts[i] = Options{Active: core.NewVMSP(1), EnableFR: cfg.fr, EnableSWI: cfg.swi}
			}
			h := newHarness(t, nodes, opts...)
			rng := rand.New(rand.NewSource(7))
			blocks := make([]mem.BlockAddr, 24)
			for i := range blocks {
				blocks[i] = mem.MakeAddr(mem.NodeID(rng.Intn(nodes)), uint64(i))
			}
			// Issue batches of concurrent accesses.
			for round := 0; round < 60; round++ {
				pending := 0
				for n := 0; n < nodes; n++ {
					addr := blocks[rng.Intn(len(blocks))]
					isWrite := rng.Intn(3) == 0
					pending++
					h.sys.Node(mem.NodeID(n)).Access(isWrite, addr, func(AccessOutcome) { pending-- })
				}
				h.k.Run(0)
				if pending != 0 {
					t.Fatalf("round %d: %d accesses incomplete", round, pending)
				}
			}
			h.finish()
		})
	}
}

func TestPassiveObserversSeeIdenticalStreams(t *testing.T) {
	// Score the recorded stream with Cosmos/MSP/VMSP as passive
	// observers; their tracked counts must relate (Cosmos sees requests
	// plus acks/writebacks).
	cosmos := core.NewCosmos(1)
	msp := core.NewMSP(1)
	vmsp := core.NewVMSP(1)
	h := newHarness(t, 4)
	var tr trace.Trace
	h.sys.Record(&tr)
	addr := mem.MakeAddr(0, 0)
	for i := 0; i < 5; i++ {
		producerConsumerRound(h, addr)
	}
	trace.Replay(&tr, cosmos, msp, vmsp)
	cs, ms, vs := cosmos.Stats(), msp.Stats(), vmsp.Stats()
	if ms.Tracked != vs.Tracked {
		t.Fatalf("MSP/VMSP tracked differ: %d vs %d", ms.Tracked, vs.Tracked)
	}
	if cs.Tracked <= ms.Tracked {
		t.Fatalf("Cosmos must track more messages (acks): %d vs %d", cs.Tracked, ms.Tracked)
	}
	h.finish()
}

func TestQuiescenceDetectsPending(t *testing.T) {
	h := newHarness(t, 2)
	addr := mem.MakeAddr(1, 0)
	h.sys.Node(0).Access(false, addr, func(AccessOutcome) {})
	// Do not run the kernel: the access is in flight.
	if err := h.sys.CheckQuiescent(); err == nil {
		t.Fatal("expected quiescence check to fail with pending access")
	}
	h.k.Run(0)
	if err := h.sys.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkStatsExposed(t *testing.T) {
	h := newHarness(t, 2)
	h.read(0, mem.MakeAddr(1, 0))
	if h.sys.NetworkStats().Sent == 0 {
		t.Fatal("expected network traffic for a remote read")
	}
	h.finish()
}
