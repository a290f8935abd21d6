package core

import "specdsm/internal/mem"

// Structure-of-arrays pattern-entry storage.
//
// A pattern entry used to be a 40-byte struct (predicted Symbol, 2-bit
// confidence, SWI premature bit, uses/hits instrumentation) behind a Go
// map with 48-byte keys. The hot surfaces — Observe's score-and-learn,
// PredictReaders, PredictNext — read only the predicted symbol, the
// confidence bits and the successor link, so the store splits each entry
// across parallel arrays keyed by one int32 index:
//
//   - hot:  the predicted symbol (vec holds the reader vector, tn the
//     packed (type, node) pair — a zero low byte means MsgInvalid, i.e.
//     "no prediction"), the meta byte (2-bit confidence counter and the
//     SWI premature bit) and succ. 16 bytes — everything a score,
//     predict, or confidence update touches, in one cache-line-friendly
//     record.
//   - keys: the (addr, packed history) identity of the entry, read only
//     to confirm a probe match.
//
// succ is the successor link: noEntry, or the index of the entry keyed by
// this entry's history advanced by this entry's own prediction — exactly
// what a patTable probe for the block's next history would return once
// this entry's prediction has been pushed. A block records the entry it
// just learned in blockState.from and resolves its new history through
// from's succ into blockState.cur, so an observation that follows the
// prediction skips the probe (and its key compare) entirely; a missing
// link is filled by the one probe that resolves the history (see
// TwoLevel.current). Because the table is insert-only and reset clears
// every entry and block, a link never goes stale on its own; the one
// thing that can break it is a change of the prediction it follows, so
// every prediction change (setPred with a new value, clearPred) clears
// succ.
//
// The fast path therefore drags 16 hot bytes per entry through the cache
// instead of the whole record. Indices are stable across growth
// (append-only slices), which is what SWIGuard and ReadPrediction
// handles rely on; gen counts Resets so stale handles degrade to no-ops.
type entryStore struct {
	keys []patternKey
	hot  []entryHot
	gen  uint32
	// vecs is the reader-vector interner, non-nil only on wide predictors
	// (machines with more than mem.InlineNodes nodes). Narrow predictors
	// store the vector's inline word directly in entryHot.vec/patKey.vec —
	// today's exact layout — while wide predictors store a dense intern id
	// there (see vecID).
	vecs *vecIntern
}

// vecID packs a reader vector into the uint64 an entry/key slot holds:
// the raw inline word on narrow predictors, a content-interned id on wide
// ones. Either way the packing is a bijection of the vector value, which
// is what keeps packed-word equality equivalent to set equality.
func (s *entryStore) vecID(v mem.ReaderVec) uint64 {
	if s.vecs == nil {
		return v.LowWord()
	}
	return s.vecs.id(v)
}

// vecIDIfPresent is vecID for predict-only paths: it reports ok = false
// instead of interning a never-seen wide vector (no table entry can pack a
// vector that was never learned, so the lookup it feeds must miss anyway).
func (s *entryStore) vecIDIfPresent(v mem.ReaderVec) (uint64, bool) {
	if s.vecs == nil {
		return v.LowWord(), true
	}
	return s.vecs.lookup(v)
}

// vecAt is the inverse of vecID.
func (s *entryStore) vecAt(id uint64) mem.ReaderVec {
	if s.vecs == nil {
		return mem.VecFromLow(id)
	}
	return s.vecs.at(id)
}

// entryHot packs the per-entry words every scoring/predict path reads.
// succ sits in what was the record's tail padding, so it stays 16 bytes.
type entryHot struct {
	vec  uint64
	tn   uint16
	meta uint8
	succ int32
}

// meta byte layout: bits 0-1 hold the saturating confidence counter,
// bit 2 the SWI premature ("noSWI") bit.
const (
	metaConfMask = 0b11
	metaNoSWI    = 1 << 2
)

// confMax saturates the 2-bit confidence counter.
const confMax = 3

// alloc appends a new entry predicting (tn, vid) for key and returns its
// index. tn/vid are the pack()/vecID packings of the predicted symbol.
func (s *entryStore) alloc(key patternKey, tn uint16, vid uint64) int32 {
	s.keys = append(s.keys, key)
	s.hot = append(s.hot, entryHot{tn: tn, vec: vid, succ: noEntry})
	return int32(len(s.keys) - 1)
}

// len returns the number of live entries.
func (s *entryStore) len() int { return len(s.keys) }

// pred reconstructs entry i's predicted symbol.
func (s *entryStore) pred(i int32) Symbol {
	h := &s.hot[i]
	return Symbol{
		Type: tnType(h.tn),
		Node: tnNode(h.tn),
		Vec:  s.vecAt(h.vec),
	}
}

// setPred replaces entry i's predicted symbol with the packed (tn, vid).
// A changed prediction advances to a different history, so it drops the
// successor link.
func (s *entryStore) setPred(i int32, tn uint16, vid uint64) {
	if h := &s.hot[i]; h.tn != tn || h.vec != vid {
		h.tn, h.vec, h.succ = tn, vid, noEntry
	}
}

// clearPred erases entry i's prediction (MsgInvalid, empty vector).
func (s *entryStore) clearPred(i int32) { s.setPred(i, 0, 0) }

// predIs reports whether entry i predicts the packed symbol (tn, vid).
func (s *entryStore) predIs(i int32, tn uint16, vid uint64) bool {
	h := &s.hot[i]
	return h.tn == tn && h.vec == vid
}

// predValid reports whether entry i holds a real prediction (the packed
// type bits are non-zero exactly when Type != MsgInvalid).
func (s *entryStore) predValid(i int32) bool { return s.hot[i].tn&symTypeMask != 0 }

// conf returns entry i's confidence counter.
func (s *entryStore) conf(i int32) uint8 { return s.hot[i].meta & metaConfMask }

func (s *entryStore) confUp(i int32) {
	if c := s.hot[i].meta & metaConfMask; c < confMax {
		s.hot[i].meta++
	}
}

func (s *entryStore) confDown(i int32) {
	if s.hot[i].meta&metaConfMask > 0 {
		s.hot[i].meta--
	}
}

// reset clears all entries, retaining the array storage, and bumps the
// generation so outstanding handles turn into no-ops.
func (s *entryStore) reset() {
	s.keys = s.keys[:0]
	s.hot = s.hot[:0]
	s.gen++
	if s.vecs != nil {
		s.vecs.reset()
	}
}

// vecIntern assigns dense ids to distinct wide reader vectors so that
// pattern keys and entries can keep holding one comparable uint64 per
// vector slot at any machine width. Ids are issued in first-seen order by
// a single-threaded predictor, so they are deterministic for a given
// observation sequence; id 0 is reserved for the empty vector. Interned
// vectors are immutable (ReaderVec mutations copy-on-write), so at() can
// hand them out without cloning. The table is an open-addressed
// content-hash index over the dense vecs slice, reset clear-but-retain
// like patTable.
type vecIntern struct {
	slots []int32 // dense index + 1; 0 = empty slot
	vecs  []mem.ReaderVec
}

// lookup returns the id for v if it was interned before.
func (t *vecIntern) lookup(v mem.ReaderVec) (uint64, bool) {
	if v.Empty() {
		return 0, true
	}
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := v.Hash() & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if t.vecs[s-1].Equal(v) {
			return uint64(s), true
		}
	}
}

// id returns the id for v, interning it on first sight.
func (t *vecIntern) id(v mem.ReaderVec) uint64 {
	if id, ok := t.lookup(v); ok {
		return id
	}
	if len(t.slots)*3 < (len(t.vecs)+1)*4 { // grow beyond 3/4 load
		t.grow()
	}
	t.vecs = append(t.vecs, v)
	id := int32(len(t.vecs))
	mask := uint64(len(t.slots) - 1)
	i := v.Hash() & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id
	return uint64(id)
}

// at returns the vector for id (the inverse of id).
func (t *vecIntern) at(id uint64) mem.ReaderVec {
	if id == 0 {
		return mem.ReaderVec{}
	}
	return t.vecs[id-1]
}

// grow doubles the slot array (or allocates the initial one) and
// reinserts every interned vector; ids are dense indices, so nothing an
// entry holds moves.
func (t *vecIntern) grow() {
	newLen := 64
	if len(t.slots) > 0 {
		newLen = len(t.slots) * 2
	}
	t.slots = make([]int32, newLen)
	mask := uint64(newLen - 1)
	for idx := range t.vecs {
		i := t.vecs[idx].Hash() & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(idx + 1)
	}
}

// reset empties the interner, retaining its storage.
func (t *vecIntern) reset() {
	clear(t.slots)
	t.vecs = t.vecs[:0]
}

// patTable is the open-addressed (addr, history) → entry-index table that
// replaced the predictor-wide Go map. Entry keys live in the store's keys
// array; each occupied slot packs an 8-bit hash tag over the entry index
// + 1 (0 meaning empty), so a probe walks a dense uint32 slot array,
// rejects ~255/256 of colliding slots on the tag byte alone, and touches
// one 48-byte key for the final confirm — no per-lookup hashing of the
// key through the runtime map machinery, and almost never more than one
// full-key comparison. The table is insert-only (patterns are never
// unlearned; Prune only clears an entry's prediction in place), which is
// what makes linear probing with clear-but-retain reset safe, mirroring
// mem.BlockMap's discipline at the block level.
type patTable struct {
	slots []uint32
	n     int
	// vecKeys selects whether the hash mixes the per-slot reader-vector
	// words. Only VMSP read-run symbols set them (see the patKey
	// commentary); for Cosmos/MSP they are always zero, so hashing
	// addr+tn alone is a complete discriminator at half the cost. The
	// slot layout is internal to the table, so the hash choice cannot
	// affect any observable result.
	vecKeys bool
}

// Slot layout: bits 0-23 hold entry index + 1, bits 24-31 the hash tag.
const (
	patIdxMask  = 1<<24 - 1
	patTagShift = 24
)

// patTableInitial is the slot count allocated on first insert, sized so a
// typical per-node working set (see New's pre-sizing) never rehashes.
const patTableInitial = 512

// hash mixes the key's words into one well-spread value with
// multiply-xorshift rounds (splitmix64's building block) rather than a
// sum: histories differ in few bits — often one symbol slot.
func (t *patTable) hash(pk *patternKey) uint64 {
	h := uint64(pk.addr) ^ 0x9e3779b97f4a7c15
	h = (h ^ pk.key.tn) * 0xbf58476d1ce4e5b9
	h ^= h >> 29
	if t.vecKeys {
		h = (h ^ pk.key.vec[0]) * 0x94d049bb133111eb
		h ^= h >> 32
		h = (h ^ pk.key.vec[1]) * 0xff51afd7ed558ccd
		h ^= h >> 29
		h = (h ^ pk.key.vec[2]) * 0xc4ceb9fe1a85ec53
		h ^= h >> 32
	}
	h = (h ^ h>>31) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}

// lookup returns the index of pk's entry in store, if present.
func (t *patTable) lookup(store *entryStore, pk patternKey) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	h := t.hash(&pk)
	want := uint32(h>>56) << patTagShift
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if s&^uint32(patIdxMask) == want {
			if idx := int32(s&patIdxMask) - 1; store.keys[idx] == pk {
				return idx, true
			}
		}
	}
}

// insert maps pk (already allocated in store at idx) into the table.
// Callers must have checked pk is absent; duplicates would shadow.
func (t *patTable) insert(store *entryStore, pk patternKey, idx int32) {
	if idx >= patIdxMask {
		panic("core: pattern table exceeds 2^24-1 entries")
	}
	if len(t.slots)*3 < (t.n+1)*4 { // grow beyond 3/4 load
		t.grow(store)
	}
	h := t.hash(&pk)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint32(h>>56)<<patTagShift | uint32(idx+1)
	t.n++
}

// grow doubles the slot array (or allocates the initial one) and
// reinserts every entry. Entry indices are values, so rehashing moves
// nothing a handle can observe.
func (t *patTable) grow(store *entryStore) {
	newLen := patTableInitial
	if len(t.slots) > 0 {
		newLen = len(t.slots) * 2
	}
	t.slots = make([]uint32, newLen)
	mask := uint64(newLen - 1)
	for idx := range store.keys {
		h := t.hash(&store.keys[idx])
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(h>>56)<<patTagShift | uint32(idx+1)
	}
}

// reset empties the table, retaining its slot storage.
func (t *patTable) reset() {
	clear(t.slots)
	t.n = 0
}
