// Package mem defines the fundamental identifiers shared by every layer of
// the simulated distributed shared memory machine: node identifiers, block
// addresses, request kinds, and reader bit-vectors.
//
// The package is deliberately tiny and dependency-free; both the coherence
// protocol (internal/protocol) and the predictors (internal/core) build on
// it without depending on each other.
//
// Key invariants:
//
//   - A BlockAddr embeds its home node in its top bits, so home lookup is
//     a shift, not a table walk, at every layer.
//   - ReaderVec is a two-tier reader set. The inline tier is one machine
//     word covering nodes 0..63 (InlineNodes), so at the paper's machine
//     sizes set algebra on sharer lists and VMSP read-run symbols stays
//     branch-free bit arithmetic on a single uint64 and mutation never
//     allocates. Beyond that a hierarchical extension covers up to
//     MaxNodes = 4096 nodes: a summary word whose bit g mirrors group g's
//     occupancy over up to 63 leaf words, so Count/Lowest/iteration skip
//     empty groups instead of scanning them.
//   - The extension obeys three structural invariants that make values
//     canonical: ext is nil if and only if no member ≥ InlineNodes exists
//     (mutators prune on the way down), a summary bit is set if and only
//     if its leaf word is non-zero, and summary bit 0 is never set (group
//     0 is the inline word). Canonical form means set equality is
//     structural — Equal compares the inline word and, at most, one
//     fixed-size extension block.
//   - The extension is copy-on-write: mutators clone it before writing,
//     so ReaderVec values can be freely copied, shared, and stored in
//     history tables like the plain word they replaced. Wide-set mutation
//     pays one bounded allocation; the narrow tier's zero-allocation
//     guarantee is unchanged and enforced by allocation-counting tests.
//   - BlockMap is the canonical block-keyed lookup structure for per-block
//     state kept inline in dense slices (the directory's entries, the
//     cache's lines): an insert-only open-addressed table mapping
//     BlockAddr to a stable int32 index, with clear-but-retain Reset. It
//     is the block-addressed analogue of internal/core's entryStore index
//     scheme and exists for the same reason — steady-state protocol
//     operation must not allocate. The predictors own no BlockMap: the
//     directory's entry index is also the block index of every predictor
//     attached there, so one probe per message serves them all (offline,
//     trace replay keeps the one BlockMap for the whole trace).
package mem
