package protocol

import (
	"specdsm/internal/mem"
)

// This file implements the speculation triggers of §4: Speculative
// Write-Invalidation (SWI) and the speculative read forwarding shared by
// SWI and First-Read (FR) triggering. The mechanisms only schedule
// existing protocol operations early; they never add protocol states.

// maybeSWI considers speculatively invalidating block addr, which the
// early-write-invalidate table says writer is probably done with. Fires
// only if the block is exclusively owned by that writer, the entry is
// quiescent, and the write pattern's premature bit is clear.
func (d *directory) maybeSWI(addr mem.BlockAddr, writer mem.NodeID) {
	act := d.n.opts.Active
	if act == nil {
		return
	}
	ei := d.entryIdx(addr)
	h := &d.hot[ei]
	if h.state != dirExclusive || h.owner != writer {
		return
	}
	if h.tr != nil || h.flags&dfHasWait != 0 {
		return
	}
	guard := act.SWIGuard(ei)
	if !guard.Allowed() {
		return
	}
	// SWI exists to trigger a predicted read sequence (§4.1); without a
	// learned read prediction there is nothing to trigger and the recall
	// would only risk a premature invalidation.
	if _, ok := act.PredictReaders(addr, ei); !ok {
		return
	}
	d.cold[ei].swiGuard = guard
	d.startTrans(h, trans{kind: transSWI, requester: writer})
	d.stats.SWIRecalls++
	d.stats.RecallsSent++
	d.n.sys.route(d.n.id, writer, Msg{Kind: MsgRecall, Addr: addr, SWI: true})
}

// specForward sends speculative read-only copies of addr to the readers
// the active predictor expects next, excluding the given nodes and anyone
// already sharing. Each forwarded copy is tracked for verification, and
// the predictor's history advances as if the reads had arrived (§4.2).
func (d *directory) specForward(addr mem.BlockAddr, ei int32, exclude mem.ReaderVec, viaSWI bool) {
	act := d.n.opts.Active
	if act == nil {
		return
	}
	rp, ok := act.PredictReaders(addr, ei)
	if !ok {
		return
	}
	h := &d.hot[ei]
	targets := rp.Readers.AndNot(exclude).AndNot(h.sharers)
	if targets.Empty() {
		return
	}
	if h.state == dirExclusive {
		return
	}
	v := h.version
	for w := targets; !w.Empty(); {
		q := w.Lowest()
		w = w.Without(q)
		h.sharers = h.sharers.With(q)
		d.setSpecPend(ei, q, rp)
		if viaSWI {
			d.stats.SpecReadsSWI++
		} else {
			d.stats.SpecReadsFR++
		}
		d.n.sys.route(d.n.id, q, Msg{Kind: MsgSpecData, Addr: addr, Version: v})
	}
	h.state = dirShared
	act.AssumeReaders(addr, ei, targets)
}

// specUpgradeApplies implements the migratory-sharing extension (§4.1
// future work, gated by Options.EnableSpecUpgrade): when the predictor
// expects the arriving reader to upgrade next, the read is granted
// exclusively, folding the read+upgrade pair into one transaction.
func (d *directory) specUpgradeApplies(addr mem.BlockAddr, ei int32, reader mem.NodeID) bool {
	if !d.n.opts.EnableSpecUpgrade {
		return false
	}
	act := d.n.opts.Active
	if act == nil {
		return false
	}
	return act.PredictsUpgradeBy(addr, ei, reader)
}
