package protocol

import (
	"fmt"

	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

type lineState uint8

const (
	lineInvalid lineState = iota
	lineShared
	lineExclusive
)

// Cache-line state is split structure-of-arrays across two parallel
// slices sharing one stable index (see cache.hot/cold): lineHot is the
// 24-byte record a hit reads — state, the flags byte, the granted
// version, and the LRU stamp — while lineCold carries the block address
// and the outstanding-miss record (the old pend map), which only misses,
// evictions, and audits touch. The hit path, the most frequent operation
// in the whole simulator, dispatches entirely out of lineHot.
type lineHot struct {
	version uint64
	lastUse uint64
	state   lineState
	flags   uint8
}

// lineHot.flags bits. spec marks a speculatively placed copy; referenced
// is the verification bit of §4.2 (set on first processor reference);
// written tracks whether the processor stored to the line since fill
// (used by the speculative upgrade extension's verification); hasPend
// mirrors "cold.pend holds the single outstanding miss"; evictPending
// marks an exclusive line whose voluntary writeback is in flight — a
// recall crossing it is ignored (the writeback doubles as the recall
// response), and the flag clears on the next fill of the block.
const (
	lfSpec uint8 = 1 << iota
	lfReferenced
	lfWritten
	lfHasPend
	lfEvictPending
)

// lineCold is the cold half of one cache line; addr is kept here so
// eviction scans and audits can walk the slice directly.
type lineCold struct {
	addr mem.BlockAddr
	// pend is the single outstanding miss of the in-order processor for
	// this block (guarded by lfHasPend).
	pend pendingAccess
}

// pendingAccess is the single outstanding miss of the in-order processor.
// invalOnFill implements the standard MSHR rule for an invalidation that
// arrives while the fill is in flight: the data is used exactly once to
// complete the access (the read is ordered before the conflicting write)
// and the line is then dropped. Stored by value inside the cold record so
// a miss allocates nothing.
type pendingAccess struct {
	isWrite     bool
	start       sim.Cycle
	done        func(AccessOutcome)
	invalOnFill bool
}

// doneEvent is a pooled deferred completion callback: every access ends
// with "invoke done(outcome) after a latency", and hits are the most
// frequent operation in the whole simulator, so this path must not
// allocate a closure per access.
type doneEvent struct {
	c   *cache
	fn  func(AccessOutcome)
	out AccessOutcome
	run func()
}

func (ev *doneEvent) fire() {
	c, fn, out := ev.c, ev.fn, ev.out
	ev.fn = nil
	c.donePool.Put(ev)
	fn(out)
}

// cache is the processor-side controller of one node. Per-block state
// lives inline in the parallel hot/cold slices; table maps a block to its
// stable index (lines are created on first touch and never removed, so
// hot[i]/cold[i] are two halves of the same line forever). seen runs
// parallel to them but belongs to the coherence checker (checkObserved).
type cache struct {
	n        *Node
	table    mem.BlockMap
	hot      []lineHot
	cold     []lineCold
	seen     []uint64
	stats    CacheStats
	donePool sim.FreeList[doneEvent]
	// pendCount tracks outstanding misses (quiescence checking).
	pendCount int
	// Finite-cache mode state.
	valid    int    // current valid-line count
	useClock uint64 // LRU timestamp source
}

func newCache(n *Node) *cache {
	// Pre-sizing the parallel slices turns the first-touch doubling chain
	// (one reallocation per power of two) into a single allocation per
	// array; a node's referenced-line working set typically fits.
	return &cache{
		n:    n,
		hot:  make([]lineHot, 0, 128),
		cold: make([]lineCold, 0, 128),
		seen: make([]uint64, 0, 128),
	}
}

// reset re-arms the cache for a fresh run: the block table and dense
// hot/cold slices are cleared but their storage is retained (zeroing the
// vacated elements so stale completion closures are not pinned), and the
// counters return to zero. The done-event pool is kept. A reset cache is
// observably equivalent to a freshly constructed one: line indices are
// re-assigned by first touch, which the workload determines.
func (c *cache) reset() {
	c.table.Reset()
	clear(c.hot)
	c.hot = c.hot[:0]
	clear(c.cold)
	c.cold = c.cold[:0]
	c.seen = c.seen[:0]
	c.stats = CacheStats{}
	c.pendCount = 0
	c.valid = 0
	c.useClock = 0
}

// lineIdx returns the stable index of addr's line, creating it (invalid)
// on first touch.
func (c *cache) lineIdx(addr mem.BlockAddr) int32 {
	li, created := c.table.Reserve(addr, int32(len(c.hot)))
	if created {
		c.hot = append(c.hot, lineHot{})
		c.cold = append(c.cold, lineCold{addr: addr})
		c.seen = append(c.seen, 0)
	}
	return li
}

// lookupIdx returns the stable index of addr's line without creating it.
func (c *cache) lookupIdx(addr mem.BlockAddr) (int32, bool) {
	return c.table.Get(addr)
}

// doneAfter schedules done(out) after delay cycles via the pooled event.
func (c *cache) doneAfter(delay sim.Cycle, done func(AccessOutcome), out AccessOutcome) {
	ev, ok := c.donePool.Get()
	if !ok {
		ev = &doneEvent{c: c}
		ev.run = ev.fire
	}
	ev.fn, ev.out = done, out
	c.n.sys.kernel.After(delay, ev.run)
}

// touch stamps the line for LRU.
func (c *cache) touch(h *lineHot) {
	c.useClock++
	h.lastUse = c.useClock
}

// install accounts line li transitioning invalid -> valid, evicting first
// if the capacity bound requires it. Re-acquiring a block also retires
// any eviction-writeback flag: a recall crossing that writeback must have
// arrived before the new grant (per-pair FIFO), so a recall seen after
// this point is a fresh one.
func (c *cache) install(li int32) {
	c.hot[li].flags &^= lfEvictPending
	cap := c.n.opts.CacheCapacity
	if cap > 0 && c.hot[li].state == lineInvalid {
		for c.valid >= cap {
			if !c.evictOne(c.cold[li].addr) {
				break // nothing evictable; exceed rather than deadlock
			}
		}
	}
	if c.hot[li].state == lineInvalid {
		c.valid++
	}
}

// drop accounts line li transitioning valid -> invalid.
func (c *cache) drop(li int32) {
	h := &c.hot[li]
	if h.state != lineInvalid {
		c.valid--
	}
	h.state = lineInvalid
	h.flags &^= lfSpec | lfWritten
}

// evictOne removes the least-recently-used valid line other than keep.
// Shared victims drop silently (the directory's sharer list tolerates
// over-approximation); exclusive victims write back voluntarily. The
// linear scan over the dense hot slice picks the minimum (lastUse, addr)
// pair, so the victim is deterministic; only valid candidates touch the
// cold array for their address.
func (c *cache) evictOne(keep mem.BlockAddr) bool {
	victim := int32(-1)
	var victimAddr mem.BlockAddr
	for i := range c.hot {
		h := &c.hot[i]
		if h.state == lineInvalid {
			continue
		}
		addr := c.cold[i].addr
		if addr == keep {
			continue
		}
		if victim < 0 || h.lastUse < c.hot[victim].lastUse ||
			(h.lastUse == c.hot[victim].lastUse && addr < victimAddr) {
			victim = int32(i)
			victimAddr = addr
		}
	}
	if victim < 0 {
		return false
	}
	c.stats.Evictions++
	vh := &c.hot[victim]
	if vh.state == lineExclusive {
		c.stats.EvictionWritebacks++
		vh.flags |= lfEvictPending
		c.n.sys.routeAfter(CacheAccess, c.n.id, victimAddr.Home(), Msg{
			Kind:      MsgWriteback,
			Addr:      victimAddr,
			Version:   vh.version,
			Written:   vh.flags&lfWritten != 0,
			Voluntary: true,
		})
	}
	c.drop(victim)
	return true
}

// Access issues one processor load (isWrite=false) or store (isWrite=true).
// done fires when the access completes, with its latency classification.
// The machine layer guarantees one outstanding access per processor.
func (c *cache) Access(isWrite bool, addr mem.BlockAddr, done func(AccessOutcome)) {
	k := c.n.sys.kernel
	li, found := c.lookupIdx(addr)

	// Hit: load on S/E, store on E — served entirely out of the hot array.
	if found {
		h := &c.hot[li]
		if h.state != lineInvalid && (!isWrite || h.state == lineExclusive) {
			c.touch(h)
			class := ClassHit
			if h.flags&(lfSpec|lfReferenced) == lfSpec {
				h.flags |= lfReferenced
				c.stats.SpecReferenced++
				class = ClassSpecHit
				c.stats.SpecHits++
			} else {
				c.stats.Hits++
			}
			if isWrite {
				h.flags |= lfWritten
			}
			c.checkObserved(li, addr, h.version)
			c.doneAfter(HitLatency, done, AccessOutcome{Class: class, Latency: HitLatency})
			return
		}
	}

	home := addr.Home()

	// Local fast path: an access to one's own home blocks that needs no
	// coherence activity costs Table 1's flat 104-cycle local latency and
	// produces no coherence message (so it is invisible to predictors).
	if home == c.n.id {
		if version, ok := c.n.dir.tryLocalFastPath(addr, isWrite); ok {
			c.fill(c.lineIdx(addr), addr, version, isWrite, isWrite)
			c.stats.LocalAccesses++
			c.doneAfter(LocalMem, done, AccessOutcome{Class: ClassLocal, Latency: LocalMem})
			return
		}
	}

	// Coherence transaction required. (lineIdx may have just created the
	// line, so re-derive the state from it rather than from li.)
	nli := c.lineIdx(addr)
	h := &c.hot[nli]
	if h.flags&lfHasPend != 0 {
		panic(fmt.Sprintf("protocol: node %d duplicate outstanding access to %v", c.n.id, addr))
	}
	kind := mem.ReqRead
	if isWrite {
		if h.state == lineShared {
			kind = mem.ReqUpgrade
		} else {
			kind = mem.ReqWrite
		}
	}
	if isWrite {
		c.stats.ProtocolWrites++
	} else {
		c.stats.ProtocolReads++
	}
	h.flags |= lfHasPend
	c.cold[nli].pend = pendingAccess{isWrite: isWrite, start: k.Now(), done: done}
	c.pendCount++
	c.n.sys.routeAfter(BusOverhead, c.n.id, home, Msg{Kind: MsgReq, Req: kind, Addr: addr})
	if isWrite && c.n.opts.EnableSWI && c.n.opts.Active != nil {
		if prev, candidate := c.n.ewi.Update(addr); candidate {
			c.n.sys.routeAfter(BusOverhead, c.n.id, prev.Home(), Msg{Kind: MsgSWIHint, Addr: prev})
		}
	}
}

// deliver dispatches a protocol message addressed to this node's cache.
func (c *cache) deliver(src mem.NodeID, m Msg) {
	switch m.Kind {
	case MsgInval:
		c.handleInval(m)
	case MsgRecall:
		c.handleRecall(m)
	case MsgData:
		c.handleData(m)
	case MsgUpgradeAck:
		c.handleUpgradeAck(m)
	case MsgSpecData:
		c.handleSpecData(m)
	default:
		panic(fmt.Sprintf("protocol: cache %d got unexpected message %v", c.n.id, m.Kind))
	}
}

// clearPend retires line li's outstanding miss and returns it. The stored
// copy is zeroed so the completion closure is not pinned past the access.
func (c *cache) clearPend(li int32) pendingAccess {
	p := c.cold[li].pend
	c.hot[li].flags &^= lfHasPend
	c.cold[li].pend = pendingAccess{}
	c.pendCount--
	return p
}

func (c *cache) handleInval(m Msg) {
	li, found := c.lookupIdx(m.Addr)
	c.stats.InvalsReceived++
	specUnused := false
	switch {
	case found && c.hot[li].state == lineShared:
		specUnused = c.hot[li].flags&(lfSpec|lfReferenced) == lfSpec
		c.drop(li)
	case found && c.hot[li].state == lineExclusive:
		panic(fmt.Sprintf("protocol: inval for exclusive line %v at node %d", m.Addr, c.n.id))
	default:
		// No valid copy: either a speculative copy we dropped, or the fill
		// for our outstanding read is still in flight. In the latter case
		// the data will be used once and discarded.
		if found && c.hot[li].flags&lfHasPend != 0 && !c.cold[li].pend.isWrite {
			c.cold[li].pend.invalOnFill = true
		}
	}
	c.n.sys.routeAfter(CacheAccess, c.n.id, m.Addr.Home(),
		Msg{Kind: MsgAckInv, Addr: m.Addr, SpecUnused: specUnused})
}

func (c *cache) handleRecall(m Msg) {
	li, found := c.lookupIdx(m.Addr)
	// A recall that crossed our voluntary eviction writeback is already
	// answered by that writeback (finite-cache mode).
	if found && c.hot[li].flags&lfEvictPending != 0 {
		c.hot[li].flags &^= lfEvictPending
		return
	}
	if !found || c.hot[li].state != lineExclusive {
		panic(fmt.Sprintf("protocol: recall for non-exclusive line %v at node %d", m.Addr, c.n.id))
	}
	c.stats.RecallsReceived++
	h := &c.hot[li]
	wb := Msg{Kind: MsgWriteback, Addr: m.Addr, Version: h.version, SWI: m.SWI, Written: h.flags&lfWritten != 0}
	c.drop(li)
	c.n.sys.routeAfter(CacheAccess, c.n.id, m.Addr.Home(), wb)
}

// fill installs a demand copy of addr in line li at version v, exclusive
// or shared, and marked written when the access that fetched it stores.
func (c *cache) fill(li int32, addr mem.BlockAddr, v uint64, excl, written bool) {
	c.install(li)
	h := &c.hot[li]
	h.state = lineShared
	if excl {
		h.state = lineExclusive
	}
	h.version = v
	h.flags &^= lfSpec | lfReferenced | lfWritten
	if written {
		h.flags |= lfWritten
	}
	c.touch(h)
	c.checkObserved(li, addr, v)
}

func (c *cache) handleData(m Msg) {
	li, found := c.lookupIdx(m.Addr)
	if !found || c.hot[li].flags&lfHasPend == 0 {
		panic(fmt.Sprintf("protocol: unsolicited data for %v at node %d", m.Addr, c.n.id))
	}
	p := c.clearPend(li)
	c.fill(li, m.Addr, m.Version, m.Excl, p.isWrite)
	if p.invalOnFill {
		// The invalidation that raced with our fill applies now: the data
		// satisfies the ordered-earlier access exactly once.
		if m.Excl {
			panic("protocol: invalOnFill set for exclusive grant")
		}
		c.drop(li)
	}
	latency := c.n.sys.kernel.Now() + FillOverhead - p.start
	c.doneAfter(FillOverhead, p.done, AccessOutcome{Class: ClassProtocol, Latency: latency})
}

func (c *cache) handleUpgradeAck(m Msg) {
	li, found := c.lookupIdx(m.Addr)
	if !found || c.hot[li].flags&lfHasPend == 0 || !c.cold[li].pend.isWrite {
		panic(fmt.Sprintf("protocol: unsolicited upgrade ack for %v at node %d", m.Addr, c.n.id))
	}
	if c.hot[li].state != lineShared {
		panic(fmt.Sprintf("protocol: upgrade ack but line not shared for %v at node %d", m.Addr, c.n.id))
	}
	p := c.clearPend(li)
	h := &c.hot[li]
	h.state = lineExclusive
	h.version = m.Version
	h.flags &^= lfSpec
	h.flags |= lfWritten
	c.touch(h)
	c.checkObserved(li, m.Addr, m.Version)
	latency := c.n.sys.kernel.Now() + FillOverhead - p.start
	c.doneAfter(FillOverhead, p.done, AccessOutcome{Class: ClassProtocol, Latency: latency})
}

// handleSpecData installs a speculatively forwarded read-only copy, or
// drops it under the paper's race rule: "upon a race between a
// speculatively-sent block and an in-flight read request for the block,
// the DSM node receiving the block drops the speculated message."
func (c *cache) handleSpecData(m Msg) {
	if li, ok := c.lookupIdx(m.Addr); ok {
		if h := &c.hot[li]; h.flags&lfHasPend != 0 || h.state != lineInvalid {
			c.stats.SpecDropped++
			return
		}
	}
	// Speculative data never displaces demand data in finite-cache mode.
	if cap := c.n.opts.CacheCapacity; cap > 0 && c.valid >= cap {
		c.stats.SpecDeclinedFull++
		c.stats.SpecDropped++
		return
	}
	nli := c.lineIdx(m.Addr)
	c.install(nli)
	h := &c.hot[nli]
	h.state = lineShared
	h.version = m.Version
	h.flags &^= lfReferenced | lfWritten
	h.flags |= lfSpec
	c.touch(h)
	c.stats.SpecInstalled++
}

// sweepSpecLines reports speculative lines never referenced by the end of
// a run (misspeculations that were not yet caught by an invalidation).
func (c *cache) sweepSpecLines() (unreferenced uint64) {
	for i := range c.hot {
		h := &c.hot[i]
		if h.state != lineInvalid && h.flags&(lfSpec|lfReferenced) == lfSpec {
			unreferenced++
		}
	}
	return unreferenced
}
