// Package protocol implements the full-map write-invalidate coherence
// protocol of the simulated CC-NUMA (paper §2), together with the
// speculation mechanisms of the speculative coherent DSM (§4).
//
// Every node hosts three cooperating controllers:
//
//   - a cache controller holding the processor's view of memory (a merged
//     model of the processor data cache and the node's remote cache — the
//     paper assumes a remote cache large enough to hold all remote data, so
//     only cold and coherence misses exist);
//   - a directory controlling the node's home blocks: per-block state
//     (Idle/Shared/Exclusive), a full-map sharer vector, an owner, and a
//     FIFO queue of requests that arrive while a transaction is in flight
//     (the blocking directory is one of the two race sources that perturb
//     message predictors; network-interface queueing is the other);
//   - optionally, predictors (internal/core) fed the directory's
//     incoming message stream: passive observers (Options.Observers, the
//     one-method core.Predictor) that only score it, and one active
//     *core.TwoLevel (Options.Active) that also drives read speculation
//     via the First-Read (FR) and Speculative Write-Invalidation (SWI)
//     triggers.
//
// The speculation machinery never modifies base protocol transitions: it
// only schedules existing operations early (an early recall, an early
// read-only forward). Speculative data that races with a real request is
// dropped at the receiver, exactly as the paper specifies, so a failed
// speculation degrades to the base protocol.
//
// # Storage layout and allocation discipline
//
// The protocol layer is on the critical path of every simulated access, so
// its steady state allocates nothing (enforced by the alloc-guard tests in
// alloc_test.go) and its per-block state is laid out structure-of-arrays:
//
//   - Each directory splits per-block state into two parallel slices,
//     dirHot and dirCold, sharing one index space; each cache does the
//     same with lineHot and lineCold. The hot record carries only what
//     the serve/hit paths read on every access (state, version, sharer
//     vector, owner, a flag byte); everything touched off the fast path —
//     the block address, wait queues, SWI watch bookkeeping, speculative
//     pending lists — lives in the cold record, so a fast-path access
//     pulls a fraction of a cache line instead of the whole entry.
//   - The hot flag byte mirrors cold-state emptiness (dfHasWait,
//     dfHasSpec, dfSWIWatch, ...): the fast path decides "is there
//     deferred work?" from the hot record alone and only dereferences
//     the cold slice when a flag says there is something to find. Any
//     code that empties a cold field must clear the mirroring flag.
//   - Both slices are indexed through mem.BlockMap (first touch goes
//     through BlockMap.Reserve, a single-probe get-or-insert). The
//     directory resolves a block once per incoming message, before the
//     predictors see it, and hands that entry index to every observer
//     and to the active predictor as their block index (see
//     core.Predictor), so no predictor probes a block table of its own.
//     Indices are stable for the lifetime of the table — growth appends,
//     Reset truncates — so deferred events and kernel callbacks reference
//     entries by int32 index, never by pointer, and a *dirHot/*lineHot
//     taken inside one handler must not be held across anything that can
//     create a new entry.
//   - The coherence checker's state lives in two more parallel slices,
//     cache.seen (the newest version each line's node has observed) and
//     directory.granted (each entry's last write grant). They share the
//     line and entry index space, growing and truncating with hot/cold,
//     but none of the protocol's state: the checker keeps its own copy of
//     every version and never reads lineHot.version or dirHot.version as
//     the previous value, so a protocol bug that corrupts one cannot hide
//     itself. A check is one slice read and write at an index the caller
//     already holds.
//   - Directory transactions, completion callbacks, and delayed sends
//     all ride pooled carriers (sim.FreeList) whose kernel closures are
//     bound once per object. A deferred grant is its entry's transaction
//     carrier: the grant's event fires from it and builds the data
//     message from the still-busy entry.
//   - Transient per-block state (the outstanding miss, the
//     eviction-writeback marker, speculative-copy tracking) is folded into
//     the cold record and retired by clearing its hot flag, so no map
//     insert or delete happens after a block's first touch, in the
//     protocol or in its checker.
package protocol
