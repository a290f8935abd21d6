package protocol

import (
	"fmt"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/sim"
)

// Node is one DSM node: a processor-side cache controller plus the
// directory for the node's home blocks, plus (optionally) a predictor.
// The node also hosts the requester-side early-write-invalidate table
// (§4.1): it records the processor's most recent write request and emits
// SWI hints to the previous block's home.
type Node struct {
	id    mem.NodeID
	sys   *System
	cache *cache
	dir   *directory
	ewi   core.EWITable
	opts  Options
}

// ID returns the node's identifier.
func (n *Node) ID() mem.NodeID { return n.id }

// AddObserver attaches one more passive predictor to this node's
// directory. Must be called before simulation starts.
func (n *Node) AddObserver(p core.Predictor) {
	n.opts.Observers = append(n.opts.Observers, p)
}

// Access issues a processor load or store. done fires at completion.
func (n *Node) Access(isWrite bool, addr mem.BlockAddr, done func(AccessOutcome)) {
	n.cache.Access(isWrite, addr, done)
}

// CacheStats returns the counters only the node's cache sees.
func (n *Node) CacheStats() CacheStats { return n.cache.stats }

// DirStats returns the node's home-side counters.
func (n *Node) DirStats() DirStats { return n.dir.stats }

// SweepUnreferencedSpec counts speculative lines never referenced by the
// end of a run (misspeculations not yet caught by an invalidation).
func (n *Node) SweepUnreferencedSpec() uint64 { return n.cache.sweepSpecLines() }

// deliver dispatches a message arriving at this node, to the directory
// (home-bound traffic) or the cache (copy-holder-bound traffic).
func (n *Node) deliver(src mem.NodeID, msg Msg) {
	switch msg.Kind {
	case MsgReq, MsgAckInv, MsgWriteback, MsgSWIHint:
		n.dir.deliver(src, msg)
	case MsgInval, MsgRecall, MsgData, MsgUpgradeAck, MsgSpecData:
		n.cache.deliver(src, msg)
	default:
		panic(fmt.Sprintf("protocol: node %d got unknown message kind %v", n.id, msg.Kind))
	}
}

// System assembles the nodes, network, and coherence checker. The
// checker's per-block state lives beside the protocol's own dense arrays
// (cache.seen, directory.granted), indexed like them but holding its own
// copy of every version; System keeps only the switch and the findings.
type System struct {
	kernel *sim.Kernel
	net    *network.Network[Msg]
	nodes  []*Node
	// sendPool recycles the deferred-send events used by routeAfter.
	sendPool sim.FreeList[sendEvent]

	// Coherence checking (simulator-level omniscience, assertions only).
	checkEnabled bool
	violations   []string
}

// sendEvent is a pooled "route msg after a fixed delay" kernel event
// (cache probe and bus-overhead latencies); its run closure is bound once.
type sendEvent struct {
	s        *System
	src, dst mem.NodeID
	msg      Msg
	run      func()
}

func (ev *sendEvent) fire() {
	s, src, dst, msg := ev.s, ev.src, ev.dst, ev.msg
	s.sendPool.Put(ev)
	s.route(src, dst, msg)
}

// routeAfter routes msg from src to dst after delay cycles, without
// allocating a closure per call.
func (s *System) routeAfter(delay sim.Cycle, src, dst mem.NodeID, msg Msg) {
	ev, ok := s.sendPool.Get()
	if !ok {
		ev = &sendEvent{s: s}
		ev.run = ev.fire
	}
	ev.src, ev.dst, ev.msg = src, dst, msg
	s.kernel.After(delay, ev.run)
}

// NewSystem builds an n-node DSM on the given kernel, with a network
// flight latency of flight cycles. opts[i] configures node i; no opts builds
// plain Base-DSM nodes. Options are never shared between nodes: each
// directory indexes its predictors by its own entry indices (see
// core.Predictor), so every node needs predictor instances of its own.
func NewSystem(k *sim.Kernel, n int, flight sim.Cycle, opts []Options) *System {
	if n <= 0 || n > mem.MaxNodes {
		panic(fmt.Sprintf("protocol: invalid node count %d", n))
	}
	if len(opts) != 0 && len(opts) != n {
		panic(fmt.Sprintf("protocol: %d options for %d nodes, want 0 or %d", len(opts), n, n))
	}
	s := &System{
		kernel:       k,
		net:          network.New[Msg](k, n, flight),
		checkEnabled: true,
	}
	for i := 0; i < n; i++ {
		var o Options
		if len(opts) == n {
			o = opts[i]
		}
		node := &Node{id: mem.NodeID(i), sys: s, opts: o}
		node.cache = newCache(node)
		node.dir = newDirectory(node)
		s.nodes = append(s.nodes, node)
		s.net.SetHandler(node.id, node.deliver)
	}
	return s
}

// Reset re-arms the system for a fresh run on a reset kernel: every
// node's cache and directory (retaining their storage) and
// early-write-invalidate table clear, the network's occupancy horizons and
// counters clear, and the coherence checker forgets its version history
// (it lives in the cache and directory slices that reset truncates).
// Attached predictors are NOT reset — they belong to the caller (the
// machine layer owns and resets them alongside this call). Call only on
// a quiescent system (a completed run); a reset system is observably
// equivalent to a freshly constructed one.
func (s *System) Reset() {
	for _, n := range s.nodes {
		n.cache.reset()
		n.dir.reset()
		n.ewi.Reset()
	}
	s.net.Reset()
	s.violations = s.violations[:0]
}

// Node returns node id.
func (s *System) Node(id mem.NodeID) *Node { return s.nodes[id] }

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// Kernel returns the simulation kernel the system runs on.
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// NetworkStats returns interconnect counters.
func (s *System) NetworkStats() network.Stats { return s.net.Stats() }

// SetCoherenceChecking toggles the version checker (on by default).
func (s *System) SetCoherenceChecking(on bool) { s.checkEnabled = on }

// route delivers a message from src to dst: node-internal traffic takes
// the local hop (via the network's pooled carrier path, bypassing the NI
// model and counters), everything else crosses the network.
func (s *System) route(src, dst mem.NodeID, msg Msg) {
	if src == dst {
		s.net.DeliverLocal(src, dst, LocalHop, msg)
		return
	}
	s.net.Send(src, dst, msg)
}

// checkObserved asserts per-node version monotonicity on line li of
// cache c: a processor must never observe an older version of a block
// than it has already seen. seen[li] is the checker's own record of the
// newest version this node saw, 0 before the first observation.
func (c *cache) checkObserved(li int32, addr mem.BlockAddr, v uint64) {
	s := c.n.sys
	if !s.checkEnabled {
		return
	}
	if prev := c.seen[li]; v < prev {
		s.violations = append(s.violations,
			fmt.Sprintf("node %d observed version %d after %d for %v", c.n.id, v, prev, addr))
	}
	c.seen[li] = v
}

// noteVersion records a write-permission grant on entry ei of directory
// d: a block's grants must number 1, 2, 3, ... granted[ei] is the
// checker's own record of the last grant, 0 before the first.
func (d *directory) noteVersion(ei int32, addr mem.BlockAddr, v uint64) {
	s := d.n.sys
	if !s.checkEnabled {
		return
	}
	if prev := d.granted[ei]; v != prev+1 {
		s.violations = append(s.violations,
			fmt.Sprintf("version grant %d follows %d for %v", v, prev, addr))
	}
	d.granted[ei] = v
}

// Violations returns all coherence-checker findings (empty on a correct
// run). Tests fail on any entry.
func (s *System) Violations() []string { return s.violations }

// CheckQuiescent verifies that no directory entry has an in-flight
// transaction or queued requests; call after the workload drains.
func (s *System) CheckQuiescent() error {
	for _, n := range s.nodes {
		for i := range n.dir.hot {
			h := &n.dir.hot[i]
			if h.tr != nil {
				return fmt.Errorf("protocol: entry %v still has transaction at node %d", n.dir.cold[i].addr, n.id)
			}
			if wq := len(n.dir.cold[i].waitq); wq != 0 {
				return fmt.Errorf("protocol: entry %v has %d queued requests at node %d", n.dir.cold[i].addr, wq, n.id)
			}
		}
		if n.cache.pendCount != 0 {
			return fmt.Errorf("protocol: node %d has %d pending accesses", n.id, n.cache.pendCount)
		}
	}
	return nil
}

// AuditConsistency cross-checks every valid cache line against directory
// state. The directory's sharer vector may over-approximate (a node can
// drop a speculative copy the home still lists), but the reverse must be
// exact: any valid line must be backed by matching directory state and
// the current version. Call on a quiescent system.
func (s *System) AuditConsistency() error {
	for _, n := range s.nodes {
		for i := range n.cache.hot {
			l := &n.cache.hot[i]
			if l.state == lineInvalid {
				continue
			}
			addr := n.cache.cold[i].addr
			home := s.nodes[addr.Home()]
			ei, ok := home.dir.lookupIdx(addr)
			if !ok {
				return fmt.Errorf("protocol: node %d holds %v with no directory entry", n.id, addr)
			}
			e := &home.dir.hot[ei]
			switch l.state {
			case lineExclusive:
				if e.state != dirExclusive || e.owner != n.id {
					return fmt.Errorf("protocol: node %d holds %v exclusive but directory says %v owner %d",
						n.id, addr, e.state, e.owner)
				}
			case lineShared:
				if e.state != dirShared || !e.sharers.Has(n.id) {
					return fmt.Errorf("protocol: node %d holds %v shared but directory says %v sharers %v",
						n.id, addr, e.state, e.sharers)
				}
			}
			if l.version != e.version {
				return fmt.Errorf("protocol: node %d holds %v at version %d, directory at %d",
					n.id, addr, l.version, e.version)
			}
		}
		// Exclusive directory entries must be backed by a real owner line.
		for i := range n.dir.hot {
			e := &n.dir.hot[i]
			if e.state != dirExclusive {
				continue
			}
			addr := n.dir.cold[i].addr
			owner := s.nodes[e.owner]
			li, ok := owner.cache.lookupIdx(addr)
			if !ok || owner.cache.hot[li].state != lineExclusive {
				return fmt.Errorf("protocol: directory says %d owns %v but its line is absent/invalid",
					e.owner, addr)
			}
		}
	}
	return nil
}

// DirEntryView is a read-only snapshot of directory state for tests.
type DirEntryView struct {
	State    string
	Sharers  mem.ReaderVec
	Owner    mem.NodeID
	Version  uint64
	Busy     bool
	QueueLen int
}

// InspectEntry exposes directory state for tests and debugging.
func (s *System) InspectEntry(addr mem.BlockAddr) DirEntryView {
	d := s.nodes[addr.Home()].dir
	ei, ok := d.lookupIdx(addr)
	if !ok {
		return DirEntryView{State: dirIdle.String(), Owner: mem.NoNode}
	}
	h := &d.hot[ei]
	return DirEntryView{
		State:    h.state.String(),
		Sharers:  h.sharers,
		Owner:    h.owner,
		Version:  h.version,
		Busy:     h.tr != nil,
		QueueLen: len(d.cold[ei].waitq),
	}
}
