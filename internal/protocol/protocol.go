package protocol

import (
	"specdsm/internal/core"
	"specdsm/internal/sim"
)

// Node-model latencies in processor cycles, calibrated to Table 1 of the
// paper: a clean two-hop remote read totals
// 25 + (20+80+20) + 24 + 104 + (20+80+20) + 25 = 418 cycles, local access
// is 104 cycles, and the remote-to-local ratio is ~4.
const (
	// HitLatency is a processor cache hit.
	HitLatency sim.Cycle = 1
	// LocalMem is a local memory (or remote-cache) access that needs no
	// coherence activity: Table 1's 104 cycles.
	LocalMem sim.Cycle = 104
	// BusOverhead is miss detection plus bus acquisition before a request
	// leaves the node.
	BusOverhead sim.Cycle = 25
	// FillOverhead is the bus transfer and cache fill when a response
	// arrives.
	FillOverhead sim.Cycle = 25
	// DirOccupancy is the directory's per-message processing time; the
	// directory is a serialized resource.
	DirOccupancy sim.Cycle = 24
	// MemAccess is the memory read/write at the home node when supplying
	// or accepting block data.
	MemAccess sim.Cycle = 104
	// CacheAccess is the remote-cache probe when servicing an external
	// invalidation or recall.
	CacheAccess sim.Cycle = 12
	// LocalHop is the node-internal hop between the processor side and the
	// node's own directory (requests to one's own home skip the network).
	LocalHop sim.Cycle = 12
)

// Options configures a node's speculation.
type Options struct {
	// Active is the predictor consulted for speculation (the paper's
	// speculative DSMs use a VMSP with history depth one). It observes
	// every message arriving at this node's directory, online, because
	// FR and SWI act on its predictions as they arise. Nil disables
	// speculation entirely.
	Active *core.TwoLevel
	// EnableFR turns on First-Read triggering of read-sequence speculation.
	EnableFR bool
	// EnableSWI turns on Speculative Write-Invalidation. The paper's
	// SWI-DSM runs SWI and FR together; EnableSWI without EnableFR is
	// permitted for ablation.
	EnableSWI bool
	// EnableSpecUpgrade enables the migratory-sharing extension sketched
	// in §4.1 (future work in the paper): when the predictor's next symbol
	// after a read by P is an upgrade by P, the directory grants the read
	// exclusively, eliminating the upgrade round trip.
	EnableSpecUpgrade bool
	// CacheCapacity bounds the node's valid cache lines (0 = unbounded,
	// the paper's §6 assumption of a remote cache large enough for all
	// remote data). With a bound, fills evict the least-recently-used
	// line: shared victims drop silently, exclusive victims write back
	// voluntarily; speculative forwards never displace demand data.
	CacheCapacity int
}

// AccessClass labels how a processor access was satisfied, for the
// execution-time breakdown of Figure 9.
type AccessClass uint8

const (
	// ClassHit is a processor cache hit.
	ClassHit AccessClass = iota
	// ClassSpecHit is a hit on a speculatively forwarded block — a remote
	// access converted into a local one. First reference clears the
	// verification bit.
	ClassSpecHit
	// ClassLocal is a local memory access with no coherence activity.
	ClassLocal
	// ClassProtocol is an access that required a coherence transaction
	// (remote request waiting time in Figure 9's breakdown).
	ClassProtocol
)

func (c AccessClass) String() string {
	switch c {
	case ClassHit:
		return "hit"
	case ClassSpecHit:
		return "spec-hit"
	case ClassLocal:
		return "local"
	case ClassProtocol:
		return "protocol"
	default:
		return "?"
	}
}

// AccessOutcome reports the completion of one processor access.
type AccessOutcome struct {
	Class   AccessClass
	Latency sim.Cycle
}

// CacheStats counts the events only one node's cache sees. Access
// classes (hits, speculative hits, local and remote accesses) are not
// here: every access reports its class in its AccessOutcome, and the
// processor that issued it counts it.
type CacheStats struct {
	SpecDropped uint64
	// Finite-cache mode.
	Evictions          uint64
	EvictionWritebacks uint64
	SpecDeclinedFull   uint64
}

// DirStats counts directory-side events at one node (its home blocks).
type DirStats struct {
	// Request messages processed, by kind.
	Reads    uint64
	Writes   uint64
	Upgrades uint64
	// Protocol actions.
	InvalsSent    uint64
	AcksReceived  uint64
	UpgradeGrants uint64
	// Speculation (reads forwarded speculatively, by trigger).
	SpecReadsFR    uint64
	SpecReadsSWI   uint64
	SpecReadUnused uint64 // verified misspeculations (never referenced)
	// SWI.
	SWIRecalls   uint64
	SWIPremature uint64
	// Extension: speculative exclusive grants for migratory sharing.
	SpecUpgrades        uint64
	SpecUpgradeMisfires uint64
}
