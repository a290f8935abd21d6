package core

import "specdsm/internal/mem"

// Outcome reports how a predictor scored one observed message.
type Outcome struct {
	// Tracked is false when the predictor ignores this message type
	// (e.g., MSP/VMSP ignore acknowledgements).
	Tracked bool
	// Predicted is true when the pattern table held a prediction for the
	// history at the time the message arrived.
	Predicted bool
	// Correct is true when that prediction matched the message.
	Correct bool
}

// Stats accumulates the accuracy/coverage counters reported in Figure 7,
// Figure 8, and Table 3 of the paper.
type Stats struct {
	// Tracked counts observed messages of tracked types.
	Tracked uint64
	// Predicted counts messages for which a prediction was issued.
	Predicted uint64
	// Correct counts correctly predicted messages.
	Correct uint64
}

// Accuracy is Correct/Predicted (Figure 7): the fraction of issued
// predictions that were right. Returns 0 when no predictions were issued.
func (s Stats) Accuracy() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predicted)
}

// Coverage is Predicted/Tracked (Table 3): the fraction of tracked
// messages for which the predictor had learned a pattern.
func (s Stats) Coverage() float64 {
	if s.Tracked == 0 {
		return 0
	}
	return float64(s.Predicted) / float64(s.Tracked)
}

// CorrectFraction is Correct/Tracked (the parenthesized product column of
// Table 3): the overall fraction of messages predicted correctly.
func (s Stats) CorrectFraction() float64 {
	if s.Tracked == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Tracked)
}

func (s *Stats) add(o Outcome) {
	if !o.Tracked {
		return
	}
	s.Tracked++
	if o.Predicted {
		s.Predicted++
	}
	if o.Correct {
		s.Correct++
	}
}

// Census reports pattern-table occupancy for Table 4.
type Census struct {
	// Blocks counts allocated blocks (blocks that observed at least one
	// tracked message).
	Blocks int
	// Entries counts pattern-table entries across all blocks.
	Entries int
	// HistoryDepth is the predictor's configured depth.
	HistoryDepth int
}

// EntriesPerBlock is the average number of pattern-table entries per
// allocated block (the "pte" columns of Table 4).
func (c Census) EntriesPerBlock() float64 {
	if c.Blocks == 0 {
		return 0
	}
	return float64(c.Entries) / float64(c.Blocks)
}

// Predictor is the interface shared by Cosmos, MSP, and VMSP.
type Predictor interface {
	// Name returns "Cosmos", "MSP", or "VMSP".
	Name() string
	// HistoryDepth returns the configured history depth d.
	HistoryDepth() int
	// Observe feeds one directory-incoming message for block addr and
	// returns the scoring outcome. Observe must be called in message
	// arrival order.
	Observe(addr mem.BlockAddr, obs Observation) Outcome
	// Stats returns the accumulated accuracy counters.
	Stats() Stats
	// Census returns pattern-table occupancy for storage accounting.
	Census() Census
	// PredictReaders returns the set of nodes predicted to read block addr
	// next, given the block's current history, together with a handle for
	// verification feedback. ok is false when no read prediction exists.
	PredictReaders(addr mem.BlockAddr) (ReadPrediction, bool)
	// PredictNext returns the predicted next symbol for the block's
	// current history, if any.
	PredictNext(addr mem.BlockAddr) (Symbol, bool)
	// PredictsUpgradeBy reports whether, assuming reader joins the current
	// read run, the predicted next symbol is a write/upgrade by that same
	// reader — the migratory-sharing signature used by the speculative
	// upgrade extension.
	PredictsUpgradeBy(addr mem.BlockAddr, reader mem.NodeID) bool
	// SWIAllowed reports whether speculative write-invalidation is
	// permitted for the block's most recent write pattern (its premature
	// bit is clear). Blocks with no recorded write pattern allow SWI.
	SWIAllowed(addr mem.BlockAddr) bool
	// SWIGuard returns a handle on the pattern entry that recorded the
	// block's most recent write/upgrade. The speculation hardware captures
	// the guard when it fires SWI and marks it premature if the producer
	// turns out not to have been done with the block (§4.1). The guard
	// stays bound to the entry even if the block's history advances.
	SWIGuard(addr mem.BlockAddr) SWIGuard
	// AssumeReaders tells the predictor that the speculation hardware has
	// forwarded read-only copies to vec, so the block's history should
	// evolve as if those reads had arrived (they never will as request
	// messages — that is the point of speculation). Without this, the
	// next write would overwrite the learned read pattern.
	AssumeReaders(addr mem.BlockAddr, vec mem.ReaderVec)
	// RetractReader undoes AssumeReaders for one node after verification
	// reports the speculative copy was never referenced.
	RetractReader(addr mem.BlockAddr, n mem.NodeID)
	// Reset clears all tables and counters.
	Reset()
}

// SWIGuard is a stable handle on the pattern-table entry carrying the SWI
// premature bit for one write pattern. The zero value is a no-op guard
// that always allows SWI. Guards reference entries by index, so they stay
// valid as the entry store grows; a guard issued before a Reset carries a
// stale generation and degrades to the no-op zero-value behaviour.
type SWIGuard struct {
	store *entryStore
	idx   int32
	gen   uint32
}

// live reports whether the guard still points into the current table
// generation.
func (g SWIGuard) live() bool { return g.store != nil && g.gen == g.store.gen }

// Allowed reports whether SWI may fire for this pattern.
func (g SWIGuard) Allowed() bool {
	return !g.live() || g.store.hot[g.idx].meta&metaNoSWI == 0
}

// MarkPremature sets the premature bit, permanently suppressing SWI for
// this pattern.
func (g SWIGuard) MarkPremature() {
	if g.live() {
		g.store.hot[g.idx].meta |= metaNoSWI
	}
}

// readPredPrefix is the inline entry capacity of a ReadPrediction. A
// VMSP prediction holds exactly one entry and an MSP/Cosmos chain one
// entry per chained reader, so the common cases fit the prefix and
// PredictReaders allocates nothing; only chains deeper than the prefix
// spill into the overflow slice.
const readPredPrefix = 4

// ReadPrediction is a predicted upcoming reader set plus the pattern-table
// entries that produced it, so that misspeculation verification can prune
// readers that never referenced a speculatively forwarded block. Like
// SWIGuard, it holds entry indices; Prune on a prediction issued before a
// Reset is a no-op. The first readPredPrefix indices live inline in the
// value itself (no heap allocation); longer chains append the remainder
// to the overflow slice.
type ReadPrediction struct {
	Readers  mem.ReaderVec
	store    *entryStore
	gen      uint32
	n        int32
	prefix   [readPredPrefix]int32
	overflow []int32
}

// addEntry records one more pattern-table index behind the prediction.
func (rp *ReadPrediction) addEntry(idx int32) {
	if int(rp.n) < len(rp.prefix) {
		rp.prefix[rp.n] = idx
	} else {
		rp.overflow = append(rp.overflow, idx)
	}
	rp.n++
}

// entryAt returns the i-th recorded index (0 ≤ i < rp.n).
func (rp *ReadPrediction) entryAt(i int32) int32 {
	if int(i) < len(rp.prefix) {
		return rp.prefix[i]
	}
	return rp.overflow[int(i)-len(rp.prefix)]
}

// Prune removes node n from the pattern entries behind this prediction.
// It implements the paper's "removes mispredicted request sequences from
// the pattern tables" on negative verification feedback.
func (rp ReadPrediction) Prune(n mem.NodeID) {
	if rp.store == nil || rp.gen != rp.store.gen {
		return
	}
	s := rp.store
	for i := int32(0); i < rp.n; i++ {
		idx := rp.entryAt(i)
		tn := s.hot[idx].tn
		if tnType(tn) != MsgRead {
			continue
		}
		if vec := s.vecAt(s.hot[idx].vec); !vec.Empty() {
			vec = vec.Without(n)
			if vec.Empty() {
				s.clearPred(idx)
			} else {
				s.setPred(idx, tn, s.vecID(vec))
			}
		} else if tnNode(tn) == n {
			s.clearPred(idx)
		}
	}
}
