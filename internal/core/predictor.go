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
}

// EntriesPerBlock is the average number of pattern-table entries per
// allocated block (the "pte" columns of Table 4).
func (c Census) EntriesPerBlock() float64 {
	if c.Blocks == 0 {
		return 0
	}
	return float64(c.Entries) / float64(c.Blocks)
}

// Predictor is the passive-observer contract (§7.2–7.3): something fed
// a directory message stream. Cosmos, MSP and VMSP (TwoLevel) score it.
// Passive observers are fed the machine's recorded stream by
// trace.Replay, whole or in pieces, whether a machine scores its own
// run or a trace file is evaluated offline. The active predictor that
// drives speculation (§4) is always a *TwoLevel, fed online by its
// node's directory, whose speculation methods the protocol calls
// directly.
//
// Every message names its block twice: by address and by bi, a dense
// index for the block (trace.Replay's first-appearance numbering of the
// stream, or the directory's own entry index for the active predictor).
// A TwoLevel keeps its per-block history at bi and keys pattern entries
// by address, so bi must be a non-negative index that names the same
// block, and only that block, for every call the predictor sees between
// Resets.
type Predictor interface {
	// Observe feeds one directory-incoming message for block addr, at
	// block index bi, and returns the scoring outcome. Observe must be
	// called in message arrival order.
	Observe(addr mem.BlockAddr, bi int32, obs Observation) Outcome
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
