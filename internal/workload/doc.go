// Package workload generates the per-processor programs for the seven
// shared-memory applications of the paper's evaluation (Table 2): appbt,
// barnes, em3d, moldyn, ocean, tomcatv, and unstructured.
//
// The generators are synthetic: rather than executing the original
// binaries (the paper used the Wisconsin Wind Tunnel II on real inputs),
// each generator reproduces the application's *sharing pattern* as the
// paper characterizes it in §7 — producer/consumer degree, migratory
// chains, stencil neighbourhoods, read re-ordering, phase-alternating
// consumers, rapidly-changing octree sharing. Pattern-based predictors and
// the FR/SWI speculation hardware observe only per-block coherence message
// streams and their timing, so generators that reproduce those streams
// exercise exactly the behaviour the paper evaluates (see DESIGN.md §2 for
// the substitution argument).
//
// All randomness is drawn from a seeded source; generation is
// deterministic for a given Params — which is what lets Programs serve
// repeated (app, Params) requests from a process-wide cache. Cached
// program sets are shared across goroutines and machine runs and are
// immutable by contract: the simulator only reads them, and no caller
// may modify a returned Program.
//
// Each generation returns its programs in one backing array, each
// program a subslice capped at its own length: an append to one
// program reallocates rather than reaching its neighbour's ops. The
// per-node buffers the programs are built in belong to a recycled
// builder, which a generation takes from a free list, reseeds, and
// returns once it has copied the programs out. A builder whose buffers
// are far larger than the programs it just produced is dropped instead,
// so buffers a large generation grew do not stay idle once generations
// shrink.
package workload
