package core

import "specdsm/internal/mem"

// EWITable is the early-write-invalidate table of §4.1, kept by the
// requester's node for its own processor: the block address of that
// processor's most recent write (or upgrade) request. A write to block B
// predicts that the processor is done writing its previously recorded
// block B' (if different), making B' a candidate for Speculative
// Write-Invalidation. One processor per node means one slot; the zero
// value is an empty table.
type EWITable struct {
	last mem.BlockAddr
	has  bool
}

// Update records a write/upgrade for addr. It returns the previously
// recorded block and reports whether that block exists and differs from
// addr — i.e., whether SWI should be considered for it.
func (t *EWITable) Update(addr mem.BlockAddr) (prev mem.BlockAddr, swiCandidate bool) {
	prev, ok := t.last, t.has
	t.last, t.has = addr, true
	if !ok || prev == addr {
		return 0, false
	}
	return prev, true
}

// Last returns the most recent write block recorded.
func (t *EWITable) Last() (mem.BlockAddr, bool) {
	return t.last, t.has
}

// Reset clears the table.
func (t *EWITable) Reset() {
	*t = EWITable{}
}
