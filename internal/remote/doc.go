// Package remote is the transport that lets a sweep run jobs on worker
// processes: each shard a Dispatcher names becomes a sweep.Transport,
// one more executor on the sweep's lease board next to the in-process
// workers. sweep.Run owns everything else — ordered delivery, the
// merge window, stop-on-failure, checkpointing — so a study's output
// (rows, keep-going failures, checkpoint contents) is byte-identical to
// a local single-worker run at any shard count, under any pattern of
// shard death, restart, or transport damage.
//
// # Wire protocol
//
// One connection carries one sweep session. Every frame is a 4-byte
// little-endian length prefix followed by one msg in a fixed binary
// layout (op, protocol version, seq, index, duration, then
// length-prefixed indices, payload and error text; see msg), so the
// reader resynchronizes per frame and no decoder state is shared across
// frames. A decoder checks every count against the bytes that remain
// before it allocates, and frames are bounded at 16 MiB. The session
// opens with a handshake — hello (protocol version + the study spec, an
// opaque byte blob the worker hands to its Server.NewRunner) answered by
// helloOK or refuse — and then loops:
//
//	dispatcher → worker:  exec       seq + a batch of job indices
//	worker → dispatcher:  jobDone    one job's result or failure text
//	worker → dispatcher:  batchDone  every index of the batch answered
//	worker → dispatcher:  heartbeat  liveness while a long job computes
//
// Results stream back per job, not per batch, so a worker that dies
// mid-batch loses only its unanswered indices. Each result is the row's
// own binary encoding (its AppendBinary on the worker), which
// Link.Settle decodes once with the sweep's row type's UnmarshalBinary;
// a row that does not decode is a transport error, never a job failure.
// No per-job byte passes through a generic serializer. A refuse is
// permanent (a version mismatch or a spec that cannot get better on
// retry); any transport error is temporary and handled by reconnection.
//
// # Failure handling
//
// A shard session claims batches from the board and settles what comes
// back. The failure matrix:
//
//   - Worker death mid-batch: the connection read fails (or the
//     per-frame heartbeat deadline expires), the session's unanswered
//     leases return to the board, and another shard — or the same one
//     after reconnect — re-runs them.
//   - Silent stall: a shard whose lease outlives StealAfter has its
//     jobs claimable by idle shards (work-stealing). Heartbeats prove
//     liveness but deliberately do not refresh leases, so a live
//     straggler's work is still stolen; duplicate completions settle
//     first-write-wins, which is safe because every executor computes
//     the identical result. In-process leases are never stolen.
//   - Repeated poison: a job requeued by MaxRedispatch dead sessions is
//     left to the sweep's in-process workers.
//   - Dead fleet: once every shard is down, the in-process workers take
//     all remaining jobs — graceful degradation to local execution.
//   - Reconnect storms: dial retries use seeded deterministic backoff
//     (fault.Mix jitter, no wall-clock randomness in results).
//
// Job-level failures are not transport failures: a job that fails
// fatally after its retry budget settles with its error text and is
// never re-dispatched.
//
// # Determinism
//
// Every executor — any shard, and the in-process workers — runs the
// job function the same spec describes and settles each job under the
// same retry/fault schedule, keyed on the job's index relative to the
// checkpoint resume point (sweep.RunOne on a worker), so a job's
// outcome does not depend on where it ran. Duplicate settlements are
// idempotent by first-write-wins, and delivery order is the board's,
// not the network's. The fault.Conn seam (connection drops, short
// reads, scheduling delays) exists so tests can tear the transport
// while byte-comparing output against a clean local run.
package remote
