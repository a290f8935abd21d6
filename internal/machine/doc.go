// Package machine assembles the full simulated CC-NUMA: in-order
// processors executing per-node programs of memory accesses, compute
// delays, and synchronization, on top of the coherence protocol
// (internal/protocol), with predictors (internal/core) attached at every
// directory.
//
// The machine produces the measurements behind every experiment in the
// paper: execution-time breakdowns (Figure 9), request/speculation counts
// (Table 5), and — through passively attached predictors — accuracy,
// coverage, and storage occupancy (Figures 7-8, Tables 3-4).
//
// Config attaches predictors in two roles: Observers only score the
// directory message stream, and Active, when set, also drives FR/SWI
// speculation. Every node gets its own instance of each; Result.Predictors
// reports each attached predictor once, summed across nodes, in
// attachment order — the observers, then the active predictor.
//
// # Run arenas
//
// Building a machine is the expensive part of a study cell: per-node
// predictors, protocol tables, and processors all have to be allocated
// before the first cycle runs. Machine.Reset re-arms a machine that has
// completed a run — kernel clock, network, protocol state, predictors,
// barriers, locks — to its just-constructed state while retaining every
// table, dense slice, queue, and event pool, and is observably
// equivalent to building fresh (pinned by the arena reset-equivalence
// tests). Arena packages that into a per-sweep-worker cache keyed by
// configuration shape: Arena.Run fetches or builds the machine for a
// Config and replays each job through it, so an app×mode×seed matrix
// pays construction once per distinct configuration per worker instead
// of once per cell. The flight latency is part of that shape, so a
// latency sweep like RTLSweep builds one machine per mode and flight.
// Arenas are single-goroutine; sweep.Run's worker-local state is the
// intended carrier.
package machine
