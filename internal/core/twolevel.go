package core

import (
	"fmt"

	"specdsm/internal/mem"
)

// Kind selects one of the three predictor variants.
type Kind uint8

const (
	// KindCosmos is the general message predictor baseline [17].
	KindCosmos Kind = iota
	// KindMSP is the request-only Memory Sharing Predictor (§3).
	KindMSP
	// KindVMSP is the Vector MSP with read-run folding (§3.1).
	KindVMSP
)

func (k Kind) String() string {
	switch k {
	case KindCosmos:
		return "Cosmos"
	case KindMSP:
		return "MSP"
	case KindVMSP:
		return "VMSP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MaxDepth is the largest supported history depth. The paper evaluates
// depths 1, 2, and 4; the packed pattern-key encoding (see patKey) sizes
// its fixed slots for MaxDepth symbols.
const MaxDepth = 4

// Pattern-key encoding and determinism contract
//
// A pattern key packs up to MaxDepth history symbols into one fixed-size
// comparable value instead of a heap-allocated string:
//
//   - tn holds the packed (type, node) pair of slot i in bits
//     [16i, 16i+16) (see packTN in symbol.go);
//   - vec[i] holds slot i's reader vector, packed through entryStore.vecID
//     (the raw inline word on narrow machines, a dense intern id on wide
//     ones — either way a bijection of the vector value). Non-zero only
//     for VMSP read-run symbols.
//
// Slot 0 is the oldest symbol. Unused slots are zero; since every pushed
// symbol has Type != MsgInvalid (= 0), histories of different lengths can
// never collide, so no explicit length field is needed in the key. The
// encoding is a bijection of the symbol sequence, which is what keeps the
// optimization observably identical to the old string-keyed tables: the
// pattern tables hold exactly the same (history → prediction) pairs, so
// every Observe/Predict result — and therefore every simulated cycle
// count pinned by the golden tests — is unchanged.
//
// patKey is a value type: blockState maintains the current history key
// incrementally (push shifts in place), and chain expansion in
// PredictReaders works on a stack copy instead of cloning a blockState.
type patKey struct {
	tn  uint64
	vec [MaxDepth]uint64
}

// push appends a packed symbol (tn slot word, vecID-packed vector) to a
// history holding have symbols at the given depth, shifting out the
// oldest symbol when full. It returns the new symbol count.
func (k *patKey) push(tn uint16, vid uint64, have, depth int) int {
	if have == depth {
		k.tn >>= 16
		copy(k.vec[:depth-1], k.vec[1:depth])
		k.vec[depth-1] = 0
		have--
	}
	k.tn |= uint64(tn) << (16 * uint(have))
	k.vec[have] = vid
	return have + 1
}

// patternKey identifies one pattern-table entry: the block plus its
// packed history. Entries live in the structure-of-arrays entryStore and
// are indexed through the open-addressed patTable (see store.go); folding
// every block's patterns into one predictor-wide table is what lets Reset
// reuse all storage without per-block containers.
type patternKey struct {
	addr mem.BlockAddr
	key  patKey
}

// noEntry marks an empty entry reference (blockState.lastWrite/cur/from,
// entryHot.succ).
const noEntry int32 = -1

// blockState holds the per-block history register. The fields are ordered
// so the record packs into 72 bytes.
type blockState struct {
	// key is the packed history, maintained incrementally by push.
	key patKey
	// open is the read run accumulated since the last non-read symbol
	// (VMSP only).
	open mem.ReaderVec
	// lastWrite indexes the entry whose prediction recorded the block's
	// most recent write/upgrade; it carries the SWI premature bit.
	lastWrite int32
	// cur is noEntry or the entry keyed by the current history — what a
	// table probe of (addr, key) returns. See TwoLevel.current.
	cur int32
	// from is noEntry or the entry whose learning pushed the newest
	// history symbol, i.e. the entry whose succ link names cur.
	from int32
	// n is the number of symbols currently in the history (≤ depth).
	n uint8
	// live marks a block that has been touched (observed as a tracked
	// message or assumed readers). Records below the high-water index
	// that were never touched keep the template and stay dead, so
	// lookups skip them and Census counts only live blocks.
	live bool
}

// newest returns the packed (tn, vid) of the most recently pushed symbol;
// the history must be non-empty.
func (bs *blockState) newest() (uint16, uint64) {
	i := uint(bs.n) - 1
	return uint16(bs.key.tn >> (16 * i)), bs.key.vec[i]
}

// TwoLevel is the shared two-level adaptive predictor engine. It is
// configured as Cosmos, MSP, or VMSP via Kind; see New.
type TwoLevel struct {
	kind  Kind
	depth int
	// blockStates is indexed by the caller's dense block index (see
	// Predictor); it grows on first touch and is truncated, not
	// reallocated, by Reset. liveBlocks counts its live records.
	blockStates []blockState
	liveBlocks  int
	// table is the single predictor-wide pattern table over store's
	// structure-of-arrays entries.
	table patTable
	store *entryStore
	stats Stats
	// maxChain bounds reader-chain expansion for non-vector predictors in
	// PredictReaders.
	maxChain int
	// confThreshold gates the speculation surfaces (PredictReaders,
	// PredictNext, PredictsUpgradeBy) on per-entry confidence; 0 disables
	// gating (the paper's behaviour). Accuracy scoring is unaffected.
	confThreshold uint8
}

// New constructs a predictor of the given kind with history depth d (the
// paper evaluates d = 1, 2, 4; at most MaxDepth is supported) for a
// machine of at most mem.InlineNodes nodes.
func New(kind Kind, depth int) *TwoLevel {
	return NewSized(kind, depth, mem.InlineNodes)
}

// NewSized is New for a machine of the given node count (≤ mem.MaxNodes).
// Predictors sized beyond mem.InlineNodes nodes intern reader vectors
// behind dense ids (see entryStore.vecID); narrow ones keep the exact
// single-word layout, so NewSized(k, d, n≤64) is observably identical to
// New(k, d).
func NewSized(kind Kind, depth, nodes int) *TwoLevel {
	if depth < 1 {
		panic(fmt.Sprintf("core: history depth %d < 1", depth))
	}
	if depth > MaxDepth {
		panic(fmt.Sprintf("core: history depth %d > MaxDepth %d", depth, MaxDepth))
	}
	if nodes < 1 || nodes > mem.MaxNodes {
		panic(fmt.Sprintf("core: node count %d out of range [1, %d]", nodes, mem.MaxNodes))
	}
	// The containers are pre-sized for a typical per-node working set so
	// that cold-path table growth costs a handful of allocations instead
	// of a full doubling chain per structure (sizing only; behaviour and
	// contents are unchanged).
	const presize = 256
	p := &TwoLevel{
		kind:        kind,
		depth:       depth,
		blockStates: make([]blockState, 0, 128),
		table:       patTable{vecKeys: kind == KindVMSP},
		store: &entryStore{
			keys: make([]patternKey, 0, presize),
			hot:  make([]entryHot, 0, presize),
		},
		maxChain: mem.InlineNodes,
	}
	if nodes > mem.InlineNodes {
		p.store.vecs = &vecIntern{}
		p.maxChain = nodes
	}
	return p
}

// NewCosmos returns the general message predictor baseline.
func NewCosmos(depth int) *TwoLevel { return New(KindCosmos, depth) }

// NewMSP returns the request-only Memory Sharing Predictor.
func NewMSP(depth int) *TwoLevel { return New(KindMSP, depth) }

// NewVMSP returns the Vector Memory Sharing Predictor.
func NewVMSP(depth int) *TwoLevel { return New(KindVMSP, depth) }

// SetConfidenceThreshold enables confidence gating of the speculation
// surfaces: only pattern entries whose 2-bit counter has reached n drive
// speculation. n is clamped to [0, 3]; 0 restores the paper's behaviour.
func (p *TwoLevel) SetConfidenceThreshold(n int) {
	switch {
	case n <= 0:
		p.confThreshold = 0
	case n > confMax:
		p.confThreshold = confMax
	default:
		p.confThreshold = uint8(n)
	}
}

// confident reports whether entry idx may drive speculation.
func (p *TwoLevel) confident(idx int32) bool {
	return p.store.conf(idx) >= p.confThreshold
}

// Kind returns the predictor variant.
func (p *TwoLevel) Kind() Kind { return p.kind }

// HistoryDepth returns the configured history depth d.
func (p *TwoLevel) HistoryDepth() int { return p.depth }

// Stats returns the accumulated accuracy counters.
func (p *TwoLevel) Stats() Stats { return p.stats }

// Reset clears all tables and counters, retaining their storage, so a
// reset predictor re-learns without re-allocating; it is observably
// equivalent to a freshly constructed one. Outstanding
// SWIGuard and ReadPrediction handles are invalidated by Reset: their
// methods become no-ops (a generation check keeps them from touching the
// reused tables).
func (p *TwoLevel) Reset() {
	p.blockStates = p.blockStates[:0]
	p.liveBlocks = 0
	p.table.reset()
	p.store.reset()
	p.stats = Stats{}
}

// tracks reports whether this predictor observes the message type. Cosmos
// tracks everything; MSP/VMSP only requests (§3: "an MSP only predicts
// memory request messages").
func (p *TwoLevel) tracks(t MsgType) bool {
	if t == MsgInvalid {
		return false
	}
	if p.kind == KindCosmos {
		return true
	}
	return t.IsRequest()
}

// block returns the state at block index bi, making it live on first
// touch; the slice grows to bi with template records. The returned
// pointer is valid until the next block call (slice growth).
func (p *TwoLevel) block(bi int32) *blockState {
	for len(p.blockStates) <= int(bi) {
		p.blockStates = append(p.blockStates, blockState{lastWrite: noEntry, cur: noEntry, from: noEntry})
	}
	bs := &p.blockStates[bi]
	if !bs.live {
		bs.live = true
		p.liveBlocks++
	}
	return bs
}

// lookup returns the live state at block index bi, or nil for an
// untouched or out-of-range index; it never grows the slice.
func (p *TwoLevel) lookup(bi int32) *blockState {
	if uint(bi) >= uint(len(p.blockStates)) {
		return nil
	}
	if bs := &p.blockStates[bi]; bs.live {
		return bs
	}
	return nil
}

// current returns the entry keyed by bs's current history, or noEntry when
// the table holds none. A history reached by following a successor link is
// already resolved in bs.cur; otherwise one table probe resolves it, and
// the result is linked as the successor of bs.from — provided from still
// predicts the newest history symbol, so that from's history advanced by
// its own prediction is exactly the current one.
func (p *TwoLevel) current(addr mem.BlockAddr, bs *blockState) int32 {
	if bs.cur != noEntry {
		return bs.cur
	}
	idx, ok := p.table.lookup(p.store, patternKey{addr, bs.key})
	if !ok {
		return noEntry
	}
	p.resolved(bs, idx)
	return idx
}

// resolved records idx as the entry for bs's current history.
func (p *TwoLevel) resolved(bs *blockState, idx int32) {
	bs.cur = idx
	if f := bs.from; f != noEntry {
		if tn, vid := bs.newest(); p.store.predIs(f, tn, vid) {
			p.store.hot[f].succ = idx
		}
	}
}

// learned pushes the packed symbol (tn, vid) that entry idx now predicts
// and moves the block onto the new history, resolving it through idx's
// successor link.
func (p *TwoLevel) learned(bs *blockState, idx int32, tn uint16, vid uint64) {
	bs.n = uint8(bs.key.push(tn, vid, int(bs.n), p.depth))
	bs.from = idx
	bs.cur = p.store.hot[idx].succ
}

// Observe implements Predictor. Messages must be fed in directory arrival
// order; each tracked message is scored exactly once against the
// prediction in effect when it arrived, then learned.
func (p *TwoLevel) Observe(addr mem.BlockAddr, bi int32, obs Observation) Outcome {
	if !p.tracks(obs.Type) {
		return Outcome{}
	}
	bs := p.block(bi)

	if p.kind == KindVMSP {
		return p.observeVMSP(addr, bs, obs)
	}

	sym := Symbol{Type: obs.Type, Node: obs.Node}
	out := p.scoreAndLearn(addr, bs, sym)
	p.stats.add(out)
	return out
}

// observeVMSP folds reads into the open run vector (§3.1). Each read is
// scored by membership in the predicted vector; a non-read first closes
// any open run (recording the complete vector as one history symbol) and
// is then scored as an ordinary symbol.
func (p *TwoLevel) observeVMSP(addr mem.BlockAddr, bs *blockState, obs Observation) Outcome {
	if obs.Type == MsgRead {
		out := Outcome{Tracked: true}
		if idx := p.current(addr, bs); idx != noEntry {
			s := p.store
			if s.predValid(idx) {
				out.Predicted = true
				h := &s.hot[idx]
				// A read type with Node 0 is how a vector symbol packs,
				// but membership is what scores a VMSP read.
				if tnType(h.tn) == MsgRead &&
					s.vecAt(h.vec).Has(obs.Node) && !bs.open.Has(obs.Node) {
					out.Correct = true
					s.confUp(idx)
				} else {
					s.confDown(idx)
				}
			}
		}
		bs.open = bs.open.With(obs.Node)
		p.stats.add(out)
		return out
	}

	// Non-read: close the open run first, recording the actual complete
	// vector as the successor of the pre-run history. The individual reads
	// were already scored; recording is scoreless.
	if !bs.open.Empty() {
		vec := Symbol{Type: MsgRead, Vec: bs.open}
		p.learn(addr, bs, vec)
		bs.open = mem.ReaderVec{}
	}
	sym := Symbol{Type: obs.Type, Node: obs.Node}
	out := p.scoreAndLearn(addr, bs, sym)
	p.stats.add(out)
	return out
}

// scoreAndLearn scores sym against the entry for the current history, then
// records sym as that history's new prediction and pushes it.
func (p *TwoLevel) scoreAndLearn(addr mem.BlockAddr, bs *blockState, sym Symbol) Outcome {
	out := Outcome{Tracked: true}
	tn, vid := sym.pack(), p.store.vecID(sym.Vec)
	idx := p.current(addr, bs)
	if idx != noEntry {
		s := p.store
		if s.predValid(idx) {
			out.Predicted = true
			// Packed equality: (type, node) word and vector word match ⟺
			// Symbol.Equal, since pack() and vecID are bijections.
			if s.predIs(idx, tn, vid) {
				out.Correct = true
				s.confUp(idx)
			} else {
				s.confDown(idx)
			}
		}
		s.setPred(idx, tn, vid)
	} else {
		idx = p.insert(addr, bs, tn, vid)
	}
	if sym.Type.IsWriteLike() {
		bs.lastWrite = idx
	}
	p.learned(bs, idx, tn, vid)
	return out
}

// insert allocates the entry for bs's current history, absent from the
// table, predicting the packed symbol (tn, vid).
func (p *TwoLevel) insert(addr mem.BlockAddr, bs *blockState, tn uint16, vid uint64) int32 {
	pk := patternKey{addr, bs.key}
	idx := p.store.alloc(pk, tn, vid)
	p.table.insert(p.store, pk, idx)
	p.resolved(bs, idx)
	return idx
}

// learn records sym as the successor of the current history without
// scoring (used when closing VMSP read runs).
func (p *TwoLevel) learn(addr mem.BlockAddr, bs *blockState, sym Symbol) {
	tn, vid := sym.pack(), p.store.vecID(sym.Vec)
	idx := p.current(addr, bs)
	if idx != noEntry {
		p.store.setPred(idx, tn, vid)
	} else {
		idx = p.insert(addr, bs, tn, vid)
	}
	p.learned(bs, idx, tn, vid)
}

// PredictNext returns the predicted next symbol for the block's current
// (closed) history, if any.
func (p *TwoLevel) PredictNext(addr mem.BlockAddr, bi int32) (Symbol, bool) {
	bs := p.lookup(bi)
	if bs == nil {
		return Symbol{}, false
	}
	idx := p.current(addr, bs)
	if idx == noEntry || !p.store.predValid(idx) || !p.confident(idx) {
		return Symbol{}, false
	}
	return p.store.pred(idx), true
}

// PredictReaders returns the set of nodes predicted to read block addr
// next, given the block's current history, together with a handle for
// verification feedback. ok is false when no read prediction exists.
//
// For VMSP the prediction is the single vector entry following the current
// history. For MSP and Cosmos — which record reads individually — the
// reader set is expanded by chaining predictions: follow the predicted
// read symbols through the pattern table until a non-read prediction, a
// missing entry, a repeated reader, or the chain bound is reached. The
// paper's speculative DSM uses VMSP; chaining lets the benchmarks compare
// speculation quality across predictors as an ablation.
func (p *TwoLevel) PredictReaders(addr mem.BlockAddr, bi int32) (ReadPrediction, bool) {
	bs := p.lookup(bi)
	if bs == nil {
		return ReadPrediction{}, false
	}
	idx := p.current(addr, bs)
	if idx == noEntry {
		return ReadPrediction{}, false
	}
	if p.kind == KindVMSP {
		s := p.store
		vec := s.vecAt(s.hot[idx].vec)
		if tnType(s.hot[idx].tn) != MsgRead || vec.Empty() || !p.confident(idx) {
			return ReadPrediction{}, false
		}
		rp := ReadPrediction{Readers: vec, store: s, gen: s.gen}
		rp.addEntry(idx)
		return rp, true
	}

	// Chain expansion over a stack copy of the packed history key. Each
	// step pushes exactly the entry's own prediction, so the next entry is
	// its successor link; a missing link is filled by one probe.
	key := bs.key
	n := int(bs.n)
	rp := ReadPrediction{store: p.store, gen: p.store.gen}
	for i := 0; i < p.maxChain; i++ {
		h := &p.store.hot[idx]
		if tnType(h.tn) != MsgRead || !p.confident(idx) {
			break
		}
		node := tnNode(h.tn)
		if rp.Readers.Has(node) {
			break
		}
		rp.Readers = rp.Readers.With(node)
		rp.addEntry(idx)
		n = key.push(h.tn, h.vec, n, p.depth)
		if h.succ == noEntry {
			next, ok := p.table.lookup(p.store, patternKey{addr, key})
			if !ok {
				break
			}
			h.succ = next
		}
		idx = h.succ
	}
	if rp.Readers.Empty() {
		return ReadPrediction{}, false
	}
	return rp, true
}

// PredictsUpgradeBy reports whether, assuming reader joins the current
// read run, the predicted next symbol is a write/upgrade by that same
// reader — the migratory-sharing signature used by the speculative
// upgrade extension. It must be called after the reader's request has
// been observed. For MSP/Cosmos the observation
// already pushed the read into the history, so the current history's
// prediction is the read's successor; for VMSP the read only opened the
// run, so the run is hypothetically closed (with reader included) first.
func (p *TwoLevel) PredictsUpgradeBy(addr mem.BlockAddr, bi int32, reader mem.NodeID) bool {
	bs := p.lookup(bi)
	if bs == nil {
		return false
	}
	var idx int32
	if p.kind == KindVMSP {
		// A run vector that was never learned cannot key any entry, so a
		// missing intern id is already a miss (vecIDIfPresent avoids
		// interning vectors on this predict-only path).
		vid, ok := p.store.vecIDIfPresent(bs.open.With(reader))
		if !ok {
			return false
		}
		key := bs.key
		key.push(packTN(MsgRead, 0), vid, int(bs.n), p.depth)
		if idx, ok = p.table.lookup(p.store, patternKey{addr, key}); !ok {
			return false
		}
	} else {
		idx = p.current(addr, bs)
	}
	if idx == noEntry || !p.store.predValid(idx) || !p.confident(idx) {
		return false
	}
	tn := p.store.hot[idx].tn
	return tnType(tn).IsWriteLike() && tnNode(tn) == reader
}

// SWIGuard returns a handle on the pattern entry that recorded the
// block's most recent write/upgrade. The speculation hardware captures
// the guard when it fires SWI and marks it premature if the producer
// turns out not to have been done with the block (§4.1). The guard
// stays bound to the entry even if the block's history advances. Blocks
// with no recorded write pattern get the zero guard, which allows SWI.
func (p *TwoLevel) SWIGuard(bi int32) SWIGuard {
	bs := p.lookup(bi)
	if bs == nil || bs.lastWrite == noEntry {
		return SWIGuard{}
	}
	return SWIGuard{store: p.store, idx: bs.lastWrite, gen: p.store.gen}
}

// AssumeReaders tells the predictor that the speculation hardware has
// forwarded read-only copies to vec, so the block's history should
// evolve as if those reads had arrived (they never will as request
// messages — that is the point of speculation). Without this, the
// next write would overwrite the learned read pattern. For VMSP the
// forwarded readers join
// the open run; for MSP/Cosmos they are recorded and pushed as individual
// read symbols (scorelessly), mirroring the history that real read
// requests would have produced.
func (p *TwoLevel) AssumeReaders(addr mem.BlockAddr, bi int32, vec mem.ReaderVec) {
	if vec.Empty() {
		return
	}
	bs := p.block(bi)
	if p.kind == KindVMSP {
		bs.open = bs.open.Union(vec)
		return
	}
	for w := vec; !w.Empty(); {
		n := w.Lowest()
		w = w.Without(n)
		p.learn(addr, bs, Symbol{Type: MsgRead, Node: n})
	}
}

// RetractReader undoes AssumeReaders for one node after verification
// reports the speculative copy was never referenced. Only the VMSP open
// run can be
// retracted; for MSP/Cosmos the pushed history symbol is left in place
// (the pattern entries themselves are fixed via ReadPrediction.Prune).
func (p *TwoLevel) RetractReader(bi int32, n mem.NodeID) {
	bs := p.lookup(bi)
	if bs == nil {
		return
	}
	bs.open = bs.open.Without(n)
}

// Census returns pattern-table occupancy for storage accounting.
func (p *TwoLevel) Census() Census {
	return Census{
		HistoryDepth: p.depth,
		Blocks:       p.liveBlocks,
		Entries:      p.store.len(),
	}
}

// BytesPerBlock evaluates the paper's Table 4 storage formulas for a
// 16-processor machine at history depth one:
//
//	Cosmos: (7 + 14·pte)/8  — 3-bit type + 4-bit id per symbol
//	MSP:    (6 + 12·pte)/8  — 2-bit type + 4-bit id per symbol
//	VMSP:   (18 + 24·pte)/8 — 2-bit type + 16-bit vector history symbol;
//	        a pte holds one vector plus one 6-bit request
//
// pte is the average pattern-table entries per allocated block.
func BytesPerBlock(kind Kind, pte float64) float64 {
	switch kind {
	case KindCosmos:
		return (7 + 14*pte) / 8
	case KindMSP:
		return (6 + 12*pte) / 8
	case KindVMSP:
		return (18 + 24*pte) / 8
	default:
		panic(fmt.Sprintf("core: unknown kind %v", kind))
	}
}

var _ Predictor = (*TwoLevel)(nil)
