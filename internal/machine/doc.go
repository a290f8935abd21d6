// Package machine assembles the full simulated CC-NUMA: in-order
// processors executing per-node programs of memory accesses, compute
// delays, and synchronization, on top of the coherence protocol
// (internal/protocol), with predictors (internal/core) scoring the
// directories' message streams.
//
// The machine produces the measurements behind every experiment in the
// paper: execution-time breakdowns (Figure 9), request/speculation counts
// (Table 5), and — through passive observers — accuracy, coverage, and
// storage occupancy (Figures 7-8, Tables 3-4).
//
// Config attaches predictors in two roles. Active, when set, drives
// FR/SWI speculation, so every node's directory feeds its own instance
// as each message arrives. Observers only score: when any are set, the
// directories record their incoming messages as one machine-wide stream
// (protocol.System.Record), and the machine replays it through one
// instance per observer as it runs, a slice of the run at a time, so
// the stream never holds more than one slice. Score is that scoring path
// for any recorded stream, so a trace file evaluated offline
// (specdsm.EvaluateTrace) is scored exactly as the run that wrote it
// (Record copies a run's whole stream out for that). Result.Predictors
// reports each attached predictor once in attachment order — the
// observers, then the active predictor summed across nodes.
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
