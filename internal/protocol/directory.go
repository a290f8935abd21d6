package protocol

import (
	"fmt"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

type dirState uint8

const (
	dirIdle dirState = iota
	dirShared
	dirExclusive
)

func (s dirState) String() string {
	switch s {
	case dirIdle:
		return "Idle"
	case dirShared:
		return "Shared"
	case dirExclusive:
		return "Exclusive"
	default:
		return "?"
	}
}

type transKind uint8

const (
	// transReadRecall: a read found the block Exclusive; the owner's copy
	// is being recalled (Figure 1 right).
	transReadRecall transKind = iota
	// transWriteRecall: a write found the block Exclusive elsewhere.
	transWriteRecall
	// transInval: a write/upgrade is invalidating the read-only sharers.
	transInval
	// transSWI: a speculative write-invalidation recall is in flight.
	transSWI
	// transGrant: the grant/forward data send is in progress; the entry
	// stays busy so queued requests cannot observe a half-applied grant.
	transGrant
)

// trans is the single in-flight transaction of a blocking directory entry.
// Transactions are pooled per directory (startTrans/endTrans): an entry
// begins and ends thousands of transactions over a run, and recycling the
// carrier is what keeps the serve path allocation-free in steady state.
// A transGrant carrier is also the deferred grant's kernel event: d and
// run are bound once when the carrier is created and survive recycling.
type trans struct {
	kind         transKind
	requester    mem.NodeID
	reqKind      mem.ReqKind
	acksLeft     int
	grantUpgrade bool
	// SWI premature verification: when the producer's own write follows an
	// SWI with speculative copies outstanding, the guard is marked
	// premature unless some consumer referenced its copy.
	swiVerify   core.SWIGuard
	swiVerifyOn bool
	sawSpecRef  bool
	// A grant fires run, which completes the grant on entry ei of
	// directory d and then, with forward, runs speculative forwarding.
	forward bool
	ei      int32
	d       *directory
	run     func()
}

// queuedReq is a waiting request packed into one word — request kind in
// the low bits, source node above, mirroring internal/core's symbol
// packing — so a wait-queue element stays two bytes at any machine
// width (a kind+NodeID struct doubled when NodeID widened, and bigger
// elements mean earlier append growth on the per-entry queues).
type queuedReq uint16

const qreqKindBits = 4 // 3 request kinds; 12 bits above fit mem.MaxNodes-1

func packReq(kind mem.ReqKind, src mem.NodeID) queuedReq {
	return queuedReq(kind) | queuedReq(src)<<qreqKindBits
}

func (q queuedReq) kind() mem.ReqKind { return mem.ReqKind(q & (1<<qreqKindBits - 1)) }
func (q queuedReq) src() mem.NodeID   { return mem.NodeID(q >> qreqKindBits) }

// specPend records one node holding an unverified speculative copy,
// together with the prediction that produced it. The per-entry list
// replaces the old map[NodeID]ReadPrediction: a handful of linear-probed
// inline records whose backing array is retained across reuse, instead of
// a per-entry heap-allocated map.
type specPend struct {
	node mem.NodeID
	rp   core.ReadPrediction
}

// Directory entry state is split structure-of-arrays across two parallel
// slices sharing one stable index (see directory.hot/cold): dirHot is the
// 32-byte record the serve path reads on every request — coherence state,
// owner, sharer vector, version, the transaction pointer, and a flags
// byte that caches "does this entry have cold state worth looking at" —
// while dirCold carries the bookkeeping (wait queue, speculative-copy
// tracking, SWI watch identity, audit address) that only queued, racing,
// or speculative traffic touches. A request that hits a quiescent entry
// dispatches entirely out of dirHot.
type dirHot struct {
	sharers mem.ReaderVec
	// version counts write-permission grants; every data message carries
	// it and the system checker asserts per-node monotonicity.
	version uint64
	tr      *trans
	owner   mem.NodeID
	state   dirState
	flags   uint8
}

// dirHot.flags bits. The queue and spec-pend bits mirror the emptiness of
// the corresponding dirCold slices so the fast path can skip the cold
// lookup entirely; the SWI and spec-upgrade bits are the state itself.
const (
	// dfSWIWatch: an SWI writeback completed; the next request decides
	// whether the invalidation was premature (§4.1). The guard and owner
	// identity live in dirCold.
	dfSWIWatch uint8 = 1 << iota
	// dfSpecUpgraded: the current exclusive grant was made speculatively
	// for migratory sharing (extension).
	dfSpecUpgraded
	// dfHasWait mirrors len(cold.waitq) > 0.
	dfHasWait
	// dfHasSpec mirrors len(cold.specPending) > 0.
	dfHasSpec
)

// dirCold is the cold half of one directory entry; addr is kept here so
// audits can walk the slice directly.
type dirCold struct {
	addr     mem.BlockAddr
	waitq    []queuedReq
	swiOwner mem.NodeID
	swiGuard core.SWIGuard
	// specPending lists nodes holding unverified speculative copies with
	// the prediction that produced each.
	specPending []specPend
}

// popWait removes and returns entry ei's oldest queued request, shifting
// in place so the slice's capacity is reused instead of walking off its
// backing array. Callers check dfHasWait first; the flag clears here when
// the queue empties.
func (d *directory) popWait(ei int32) queuedReq {
	c := &d.cold[ei]
	q := c.waitq[0]
	n := copy(c.waitq, c.waitq[1:])
	c.waitq = c.waitq[:n]
	if n == 0 {
		d.hot[ei].flags &^= dfHasWait
	}
	return q
}

// pushWait queues a request on entry ei.
func (d *directory) pushWait(ei int32, q queuedReq) {
	d.cold[ei].waitq = append(d.cold[ei].waitq, q)
	d.hot[ei].flags |= dfHasWait
}

// setSpecPend records (or replaces) the tracked prediction for node on
// entry ei.
func (d *directory) setSpecPend(ei int32, node mem.NodeID, rp core.ReadPrediction) {
	c := &d.cold[ei]
	for i := range c.specPending {
		if c.specPending[i].node == node {
			c.specPending[i].rp = rp
			return
		}
	}
	c.specPending = append(c.specPending, specPend{node: node, rp: rp})
	d.hot[ei].flags |= dfHasSpec
}

// clearSpecPend removes and returns the tracked prediction for node on
// entry ei. The hot flag is consulted first, so entries with no
// speculative copies (the common case) never touch the cold array; the
// vacated tail record is zeroed so its ReadPrediction does not pin
// predictor storage.
func (d *directory) clearSpecPend(ei int32, node mem.NodeID) (core.ReadPrediction, bool) {
	if d.hot[ei].flags&dfHasSpec == 0 {
		return core.ReadPrediction{}, false
	}
	c := &d.cold[ei]
	for i := range c.specPending {
		if c.specPending[i].node == node {
			rp := c.specPending[i].rp
			last := len(c.specPending) - 1
			c.specPending[i] = c.specPending[last]
			c.specPending[last] = specPend{}
			c.specPending = c.specPending[:last]
			if last == 0 {
				d.hot[ei].flags &^= dfHasSpec
			}
			return rp, true
		}
	}
	return core.ReadPrediction{}, false
}

// inMsg is one directory-bound message waiting behind the occupancy
// model.
type inMsg struct {
	src mem.NodeID
	msg Msg
}

// directory is the home-side controller of one node. Per-block state
// lives inline in the parallel hot/cold slices; table maps a home block
// to its stable index (entries are created on first touch and never
// removed, so the insert-only BlockMap suffices, and hot[i]/cold[i] are
// two halves of the same entry forever). granted runs parallel to them
// but belongs to the coherence checker (noteVersion).
type directory struct {
	n       *Node
	table   mem.BlockMap
	hot     []dirHot
	cold    []dirCold
	granted []uint64
	// free serializes directory occupancy, modeling queueing delay.
	free  sim.Cycle
	stats DirStats
	// inq is the FIFO of delivered-but-unprocessed messages; processNext
	// is the single bound dispatch closure scheduled once per message, so
	// deliver allocates nothing in steady state.
	inq         []inMsg
	inqHead     int
	processNext func()
	transPool   sim.FreeList[trans]
}

func newDirectory(n *Node) *directory {
	// Pre-sizing the parallel slices turns the first-touch doubling chain
	// (one reallocation per power of two) into a single allocation per
	// array; a node's share of home blocks typically fits.
	d := &directory{
		n:       n,
		hot:     make([]dirHot, 0, 64),
		cold:    make([]dirCold, 0, 64),
		granted: make([]uint64, 0, 64),
	}
	d.processNext = d.dispatch
	return d
}

// entryIdx returns the stable index of addr's entry, creating the entry
// on first touch. Creation within the slices' capacity re-initializes
// the vacated elements in place, keeping the waitq/specPending backing
// arrays a previous run left behind (see reset) instead of dropping them.
func (d *directory) entryIdx(addr mem.BlockAddr) int32 {
	idx, created := d.table.Reserve(addr, int32(len(d.hot)))
	if !created {
		return idx
	}
	if addr.Home() != d.n.id {
		panic(fmt.Sprintf("protocol: block %v is not homed at node %d", addr, d.n.id))
	}
	d.hot = append(d.hot, dirHot{owner: mem.NoNode})
	d.granted = append(d.granted, 0)
	if int(idx) < cap(d.cold) {
		d.cold = d.cold[:idx+1]
		c := &d.cold[idx]
		wq, sp := c.waitq[:0], c.specPending[:0]
		*c = dirCold{addr: addr, waitq: wq, specPending: sp}
	} else {
		d.cold = append(d.cold, dirCold{addr: addr})
	}
	return idx
}

// reset re-arms the directory for a fresh run: the block table, dense
// hot/cold slices, input queue, occupancy horizon, and counters clear,
// retaining all storage — including each retired entry's waitq and
// specPending backing arrays, which entryIdx re-adopts when the slot is
// reused. The transaction pool is kept. Entries must be quiescent (no
// live transaction, empty waitq), which a completed run guarantees via
// CheckQuiescent.
func (d *directory) reset() {
	d.table.Reset()
	clear(d.hot)
	d.hot = d.hot[:0]
	for i := range d.cold {
		c := &d.cold[i]
		// Zero the record but keep the slice headers for reuse; the queues
		// hold only values (and pooled-store handles), so truncation alone
		// retires their contents.
		*c = dirCold{waitq: c.waitq[:0], specPending: c.specPending[:0]}
	}
	d.cold = d.cold[:0]
	d.granted = d.granted[:0]
	d.free = 0
	d.stats = DirStats{}
	d.inq = d.inq[:0]
	d.inqHead = 0
}

// lookupIdx returns the stable index of addr's entry without creating it.
func (d *directory) lookupIdx(addr mem.BlockAddr) (int32, bool) {
	return d.table.Get(addr)
}

// startTrans begins a transaction on entry h, recycling a pooled carrier,
// and returns it.
func (d *directory) startTrans(h *dirHot, t trans) *trans {
	tr, ok := d.transPool.Get()
	if !ok {
		tr = &trans{d: d}
		tr.run = tr.fireGrant
	}
	t.d, t.run = tr.d, tr.run
	*tr = t
	h.tr = tr
	return tr
}

// endTrans clears entry h's transaction and recycles the carrier. The
// carrier is zeroed on release so a stale SWIGuard cannot pin predictor
// storage.
func (d *directory) endTrans(h *dirHot) {
	if tr := h.tr; tr != nil {
		*tr = trans{d: tr.d, run: tr.run}
		d.transPool.Put(tr)
		h.tr = nil
	}
}

// grant starts entry ei's grant transaction: after the home memory
// access, fireGrant sends requester the data and, with forward, runs
// speculative read forwarding. requester mem.NoNode is the forward-only
// grant that follows an SWI writeback.
func (d *directory) grant(ei int32, requester mem.NodeID, forward bool) {
	tr := d.startTrans(&d.hot[ei], trans{kind: transGrant, requester: requester, forward: forward, ei: ei})
	d.n.sys.kernel.After(MemAccess, tr.run)
}

// fireGrant completes a grant transaction. The data message is built
// from the entry now: the entry has been busy since grant started it, so
// its state and version are the ones the grant made.
func (tr *trans) fireGrant() {
	d, ei, req := tr.d, tr.ei, tr.requester
	h := &d.hot[ei]
	addr := d.cold[ei].addr
	var exclude mem.ReaderVec
	if req != mem.NoNode {
		d.n.sys.route(d.n.id, req, Msg{Kind: MsgData, Addr: addr, Version: h.version, Excl: h.state == dirExclusive})
		exclude = mem.VecOf(req)
	}
	if tr.forward {
		d.specForward(addr, ei, exclude, req == mem.NoNode)
	}
	d.finish(addr, ei)
}

// deliver enqueues a directory-bound message behind the directory's
// occupancy; messages are processed strictly in arrival order. The
// occupancy horizon is monotonic and every queued message gets exactly
// one dispatch event, so the FIFO pop in dispatch sees messages in the
// same order they were delivered here.
func (d *directory) deliver(src mem.NodeID, msg Msg) {
	k := d.n.sys.kernel
	start := k.Now()
	if d.free > start {
		start = d.free
	}
	d.free = start + DirOccupancy
	d.inq = append(d.inq, inMsg{src: src, msg: msg})
	k.At(d.free, d.processNext)
}

// dispatch pops and processes the oldest undelivered message.
func (d *directory) dispatch() {
	m := d.inq[d.inqHead]
	d.inq[d.inqHead] = inMsg{}
	d.inqHead++
	switch {
	case d.inqHead == len(d.inq):
		d.inq = d.inq[:0]
		d.inqHead = 0
	case d.inqHead >= 32 && d.inqHead*2 >= len(d.inq):
		// Compact a persistently backlogged queue so its memory tracks
		// peak depth, not total messages processed.
		n := copy(d.inq, d.inq[d.inqHead:])
		d.inq = d.inq[:n]
		d.inqHead = 0
	}
	d.process(m.src, m.msg)
}

func (d *directory) process(src mem.NodeID, m Msg) {
	switch m.Kind {
	case MsgReq:
		d.processRequest(src, m.Req, m.Addr)
	case MsgAckInv:
		d.processAck(src, m.Addr, m.SpecUnused)
	case MsgWriteback:
		d.processWriteback(src, m)
	case MsgSWIHint:
		// §4.1: the writer's node signals it is probably done with Addr.
		if d.n.opts.EnableSWI {
			d.maybeSWI(m.Addr, src)
		}
	default:
		panic(fmt.Sprintf("protocol: directory %d got unexpected message %v", d.n.id, m.Kind))
	}
}

// observe feeds one incoming message for entry ei to every attached
// predictor; the entry index is each predictor's block index (see
// core.Predictor), so the block is resolved once per message.
func (d *directory) observe(addr mem.BlockAddr, ei int32, t core.MsgType, node mem.NodeID) {
	o := core.Observation{Type: t, Node: node}
	for _, p := range d.n.opts.Observers {
		p.Observe(addr, ei, o)
	}
	if a := d.n.opts.Active; a != nil {
		a.Observe(addr, ei, o)
	}
}

func (d *directory) processRequest(src mem.NodeID, kind mem.ReqKind, addr mem.BlockAddr) {
	switch kind {
	case mem.ReqRead:
		d.stats.Reads++
	case mem.ReqWrite:
		d.stats.Writes++
	case mem.ReqUpgrade:
		d.stats.Upgrades++
	}
	ei := d.entryIdx(addr)
	d.observe(addr, ei, core.ReqMsgType(kind), src)
	if d.hot[ei].tr != nil {
		d.pushWait(ei, packReq(kind, src))
		return
	}
	d.serve(addr, ei, kind, src)
}

// checkSWIWatch resolves the premature-invalidation watch on the first
// request served after an SWI completes. The watch bit lives in the hot
// flags so unwatched entries (the common case) never read the cold guard.
func (d *directory) checkSWIWatch(ei int32, kind mem.ReqKind, src mem.NodeID) (verify core.SWIGuard, verifyOn bool) {
	guard, owner, ok := d.takeSWIWatch(ei)
	if !ok || src != owner {
		return core.SWIGuard{}, false // a consumer intervened: SWI succeeded
	}
	if kind == mem.ReqRead || d.hot[ei].flags&dfHasSpec == 0 {
		// The producer wants the block back before anyone consumed it.
		d.premature(guard)
		return core.SWIGuard{}, false
	}
	// The producer is writing again while speculative copies are still
	// outstanding: defer the verdict to the invalidation acks — if no
	// consumer referenced its copy, the SWI was premature.
	return guard, true
}

// takeSWIWatch clears entry ei's premature-invalidation watch, returning
// its guard and the node whose SWI writeback set it; ok is false when no
// watch is set.
func (d *directory) takeSWIWatch(ei int32) (guard core.SWIGuard, owner mem.NodeID, ok bool) {
	h := &d.hot[ei]
	if h.flags&dfSWIWatch == 0 {
		return core.SWIGuard{}, mem.NoNode, false
	}
	h.flags &^= dfSWIWatch
	c := &d.cold[ei]
	guard = c.swiGuard
	c.swiGuard = core.SWIGuard{}
	return guard, c.swiOwner, true
}

func (d *directory) premature(guard core.SWIGuard) {
	guard.MarkPremature()
	d.stats.SWIPremature++
}

// serve executes one request against a non-busy entry.
func (d *directory) serve(addr mem.BlockAddr, ei int32, kind mem.ReqKind, src mem.NodeID) {
	verify, verifyOn := d.checkSWIWatch(ei, kind, src)

	switch kind {
	case mem.ReqRead:
		d.serveRead(addr, ei, src)
	case mem.ReqWrite, mem.ReqUpgrade:
		d.serveWrite(addr, ei, kind, src, verify, verifyOn)
	default:
		panic(fmt.Sprintf("protocol: unknown request kind %v", kind))
	}
}

func (d *directory) serveRead(addr mem.BlockAddr, ei int32, src mem.NodeID) {
	h := &d.hot[ei]
	switch h.state {
	case dirIdle, dirShared:
		phaseStart := h.state == dirIdle
		// Speculative upgrade extension: if the predictor expects this
		// reader to upgrade next (migratory sharing), grant exclusively.
		if phaseStart && d.specUpgradeApplies(addr, ei, src) {
			d.stats.SpecUpgrades++
			h.flags |= dfSpecUpgraded
			d.grantExclusive(addr, ei, src, mem.ReqWrite, false)
			return
		}
		h.state = dirShared
		h.sharers = h.sharers.With(src)
		d.grant(ei, src, phaseStart && d.n.opts.EnableFR)
	case dirExclusive:
		if h.owner == src {
			panic(fmt.Sprintf("protocol: owner %d re-reading %v", src, addr))
		}
		d.startTrans(h, trans{kind: transReadRecall, requester: src, reqKind: mem.ReqRead})
		d.n.sys.route(d.n.id, h.owner, Msg{Kind: MsgRecall, Addr: addr})
	}
}

func (d *directory) serveWrite(addr mem.BlockAddr, ei int32, kind mem.ReqKind, src mem.NodeID, verify core.SWIGuard, verifyOn bool) {
	h := &d.hot[ei]
	switch h.state {
	case dirIdle:
		if verifyOn {
			// No sharers to consult: nobody consumed, so it was premature.
			d.premature(verify)
		}
		d.grantExclusive(addr, ei, src, kind, false)
	case dirShared:
		others := h.sharers.Without(src)
		// If src's sharer membership came from an unverified speculative
		// forward, the home cannot assume src kept the copy (it may have
		// dropped the speculated message under the race rule), so the
		// grant must carry data rather than permission only.
		_, specTainted := d.clearSpecPend(ei, src)
		viaUpgrade := kind == mem.ReqUpgrade && h.sharers.Has(src) && !specTainted
		if others.Empty() {
			if verifyOn {
				d.premature(verify)
			}
			d.grantExclusive(addr, ei, src, kind, viaUpgrade)
			return
		}
		d.startTrans(h, trans{
			kind:         transInval,
			requester:    src,
			reqKind:      kind,
			acksLeft:     others.Count(),
			grantUpgrade: viaUpgrade,
			swiVerify:    verify,
			swiVerifyOn:  verifyOn,
		})
		for w := others; !w.Empty(); {
			q := w.Lowest()
			w = w.Without(q)
			d.stats.InvalsSent++
			d.n.sys.route(d.n.id, q, Msg{Kind: MsgInval, Addr: addr})
		}
	case dirExclusive:
		if h.owner == src {
			panic(fmt.Sprintf("protocol: owner %d re-requesting write for %v", src, addr))
		}
		d.startTrans(h, trans{kind: transWriteRecall, requester: src, reqKind: kind})
		d.n.sys.route(d.n.id, h.owner, Msg{Kind: MsgRecall, Addr: addr})
	}
}

// grantExclusive makes src the owner at a new version, retiring whatever
// transaction the entry was running. With viaUpgradeAck the requester
// kept its read-only copy, so only a permission message is needed;
// otherwise data is supplied after a memory access, with the entry held
// busy until the grant is on the wire.
func (d *directory) grantExclusive(addr mem.BlockAddr, ei int32, src mem.NodeID, kind mem.ReqKind, viaUpgradeAck bool) {
	d.endTrans(&d.hot[ei])
	v := d.own(addr, ei, src)
	if viaUpgradeAck {
		d.stats.UpgradeGrants++
		d.n.sys.route(d.n.id, src, Msg{Kind: MsgUpgradeAck, Addr: addr, Version: v})
		d.finish(addr, ei)
		return
	}
	d.grant(ei, src, false)
}

// own makes node the exclusive owner of entry ei at a new version and
// returns that version.
func (d *directory) own(addr mem.BlockAddr, ei int32, node mem.NodeID) uint64 {
	h := &d.hot[ei]
	h.version++
	h.state = dirExclusive
	h.owner = node
	h.sharers = mem.ReaderVec{}
	d.noteVersion(ei, addr, h.version)
	return h.version
}

// finish clears the entry's transaction and serves queued requests until
// one of them blocks the entry again.
func (d *directory) finish(addr mem.BlockAddr, ei int32) {
	d.endTrans(&d.hot[ei])
	for {
		h := &d.hot[ei]
		if h.tr != nil || h.flags&dfHasWait == 0 {
			return
		}
		q := d.popWait(ei)
		d.serve(addr, ei, q.kind(), q.src())
	}
}

func (d *directory) processAck(src mem.NodeID, addr mem.BlockAddr, specUnused bool) {
	ei := d.entryIdx(addr)
	d.observe(addr, ei, core.MsgAckInv, src)
	h := &d.hot[ei]
	d.stats.AcksReceived++

	// Speculation verification (§4.2): the piggy-backed bit reports
	// whether a speculatively placed copy was ever referenced.
	if rp, ok := d.clearSpecPend(ei, src); ok {
		if specUnused {
			rp.Prune(src)
			if a := d.n.opts.Active; a != nil {
				a.RetractReader(ei, src)
			}
			d.stats.SpecReadUnused++
		} else if h.tr != nil {
			h.tr.sawSpecRef = true
		}
	}

	h.sharers = h.sharers.Without(src)
	if h.tr == nil || h.tr.kind != transInval {
		// Ack for a non-invalidating entry would be a protocol bug.
		panic(fmt.Sprintf("protocol: stray ack for %v from %d", addr, src))
	}
	h.tr.acksLeft--
	if h.tr.acksLeft > 0 {
		return
	}
	tr := h.tr
	if tr.swiVerifyOn && !tr.sawSpecRef {
		d.premature(tr.swiVerify)
	}
	// Copy out before grantExclusive retires (and recycles) the carrier.
	req, reqKind, upgrade := tr.requester, tr.reqKind, tr.grantUpgrade
	d.grantExclusive(addr, ei, req, reqKind, upgrade)
}

func (d *directory) processWriteback(src mem.NodeID, m Msg) {
	ei := d.entryIdx(m.Addr)
	d.observe(m.Addr, ei, core.MsgWriteback, src)
	h := &d.hot[ei]
	// A writeback answers the entry's outstanding recall, or it comes
	// from a capacity eviction (Voluntary) and retires the ownership of a
	// quiescent entry in place. A voluntary writeback that crosses a
	// recall answers it; the cache ignores the crossing recall.
	tr := h.tr
	recall := tr != nil && (tr.kind == transReadRecall || tr.kind == transWriteRecall || tr.kind == transSWI)
	if !recall && (tr != nil || !m.Voluntary) {
		panic(fmt.Sprintf("protocol: unsolicited writeback for %v from %d", m.Addr, src))
	}
	if h.state != dirExclusive || h.owner != src {
		panic(fmt.Sprintf("protocol: writeback for %v from %d but directory says %v owner %d",
			m.Addr, src, h.state, h.owner))
	}
	if m.Version != h.version {
		panic(fmt.Sprintf("protocol: writeback version %d != directory %d for %v", m.Version, h.version, m.Addr))
	}
	if h.flags&dfSpecUpgraded != 0 {
		if !m.Written {
			d.stats.SpecUpgradeMisfires++
		}
		h.flags &^= dfSpecUpgraded
	}
	h.state = dirIdle
	h.owner = mem.NoNode
	h.sharers = mem.ReaderVec{}
	if tr == nil {
		return
	}
	kind, req, reqKind := tr.kind, tr.requester, tr.reqKind
	d.endTrans(h)
	switch kind {
	case transReadRecall:
		// The read is served against the now-Idle entry, so migratory
		// sharing arriving through a recall can be granted exclusively
		// (speculative upgrade extension) and a shared grant starts FR.
		d.serveRead(m.Addr, ei, req)
	case transWriteRecall:
		d.grantExclusive(m.Addr, ei, req, reqKind, false)
	case transSWI:
		h.flags |= dfSWIWatch
		d.cold[ei].swiOwner = src
		d.grant(ei, mem.NoNode, true)
	}
}

// tryLocalFastPath serves a local access that needs no coherence activity,
// mutating directory state directly (the access is ordered at call time).
// Returns the observed/granted version.
func (d *directory) tryLocalFastPath(addr mem.BlockAddr, isWrite bool) (uint64, bool) {
	ei := d.entryIdx(addr)
	h := &d.hot[ei]
	if h.tr != nil || h.flags&dfHasWait != 0 {
		return 0, false
	}
	self := d.n.id
	// An Exclusive entry takes the slow path, which queues behind the
	// owner: even owner==self is possible in finite-cache mode (the line
	// was evicted and its voluntary writeback is still in flight). A
	// write also needs every other sharer gone (an Idle entry has none).
	if h.state == dirExclusive || (isWrite && !h.sharers.Without(self).Empty()) {
		return 0, false
	}
	// The home node's processor is itself the producer in many sharing
	// patterns, and its silent local re-access after an SWI is exactly
	// the "producer was not done" signal.
	if guard, owner, ok := d.takeSWIWatch(ei); ok && owner == self {
		d.premature(guard)
	}
	if isWrite {
		return d.own(addr, ei, self), true
	}
	h.state = dirShared
	h.sharers = h.sharers.With(self)
	return h.version, true
}
