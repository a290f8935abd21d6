// Package core implements the paper's primary contribution: pattern-based
// coherence predictors attached to a DSM directory.
//
// Three predictors are provided, all built on one two-level (PAp-derived)
// engine:
//
//   - Cosmos — the general message predictor of Mukherjee & Hill (ISCA '98),
//     reproduced here as the baseline. It observes and predicts every
//     incoming coherence message at the directory, including invalidation
//     acknowledgements and writebacks.
//   - MSP — the paper's Memory Sharing Predictor (§3). It observes and
//     predicts only memory request messages (read, write, upgrade),
//     eliminating acknowledgement-induced perturbation of the pattern
//     tables.
//   - VMSP — the Vector MSP (§3.1). Like MSP, but a sequence of reads
//     between writes is folded into a single reader bit-vector symbol,
//     eliminating read re-ordering effects.
//
// The package also provides the speculation-facing surface used by the
// speculative coherent DSM (§4): predicted upcoming reader sets with
// verification feedback (pruning mispredicted readers), the Speculative
// Write-Invalidation premature bit, and the per-node early-write-invalidate
// table.
//
// Four storage invariants keep Observe allocation-free in steady state
// while leaving every observable result bit-identical to the original
// string-keyed implementation (see the commentary on patKey in
// twolevel.go for the full argument):
//
//   - Pattern histories are packed into a fixed-size comparable patKey (a
//     bijection of the symbol sequence), maintained incrementally per
//     block, so table lookups never build heap keys.
//   - All pattern entries of a predictor live in one entryStore, laid out
//     structure-of-arrays: parallel slices for the pattern key and the
//     16-byte hot record (the packed prediction — tn holds
//     Type|Node<<symTypeBits, vec the reader vector's inline word or, on
//     machines wider than mem.InlineNodes, its id in the store's vector
//     interner, together a bijection of the Symbol it replaces, validity
//     tn&symTypeMask != 0 — plus the confidence/SWI meta byte and the
//     successor link). The scoring loop reads only the hot array — it
//     never drags the key array into cache.
//     Lookup goes through patTable, an open-addressed pattern-key index
//     whose tagged probes reject mismatches on one byte and confirm on
//     the key in entryStore.keys.
//   - Most observations skip that probe by following the prediction: an
//     entry's succ link names the entry keyed by its history advanced by
//     its own prediction, and a block remembers the entry that pushed its
//     newest symbol (from) and the entry its current history resolves to
//     (cur). Learning moves the block to cur = succ; a missing link costs
//     one probe, which then fills it. The table is insert-only and Reset
//     clears every block and entry, so a link always names exactly the
//     entry a probe would return — every prediction change (setPred with
//     a new value, clearPred, Prune's vector rewrite) clears succ, and a
//     probe result is linked to from only while from still predicts the
//     newest symbol.
//   - Entries and per-block records are addressed by stable int32 index
//     (growth appends, Reset bumps a generation and truncates); handles
//     (SWIGuard, ReadPrediction) carry the store generation so anything
//     captured before a Reset degrades to a no-op instead of corrupting
//     reused storage. Blocks reach their record through
//     mem.BlockMap.Reserve, a single-probe get-or-insert.
package core
