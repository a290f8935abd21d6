// Package sweep is the deterministic ordered-sweep engine behind every
// paper study.
//
// Every experiment in the evaluation (Figures 7-9, Tables 3-5, the rtl,
// multi-seed and scaling sweeps) is a set of independent simulations
// run in index order. Run is the one way to execute such a sweep: jobs
// may run anywhere — on the pool's in-process workers, or on remote
// shards attached as Transports — and the observable outcome (results,
// their order, which error is reported) is identical to running the
// jobs sequentially:
//
//   - Every executor claims jobs from one lease board, and results are
//     delivered to emit in index order on the calling goroutine,
//     regardless of completion order or which executor ran the job.
//   - When jobs fail, the failure with the lowest index wins, exactly
//     as a sequential loop would have reported it: claims past a
//     settled failure stop, but lower-index jobs still run, so an
//     earlier (more authoritative) failure is never lost.
//   - A panicking job is captured as a *PanicError rather than taking
//     down the process, with the same trimmed text on every executor.
//
// Each in-process worker lazily builds one worker-local state value
// (typically a machine.Arena that amortizes simulated-machine
// construction across the worker's jobs) and threads it through every
// job it claims. State never crosses workers; since job results must
// not depend on which worker ran them, the ordered delivery is
// unchanged.
//
// Memory is bounded by the window: the board is a ring of Pool.Window
// slots, no job starts until it is within the window of the delivery
// frontier, and a slot is cleared the moment its result is delivered,
// so buffered results and board state are O(window) whatever the job
// count — the property that lets million-job sweeps aggregate online.
//
// Options turns on the rest. A Checkpoint makes a sweep restartable:
// it persists the delivered prefix (versioned header, then append-only
// CRC-verified frames, each flush appending only its new frames and
// syncing), and Run replays the saved frames and then runs only the
// missing indices, so an interrupted-then-resumed sweep emits exactly
// the sequence an uninterrupted run would have, at any worker count.
// Resuming adopts the file's longest valid frame prefix (see Failure
// model).
// Rows reach a checkpoint, and come back from a transport, only through
// the row type's own binary codec (AppendBinary and UnmarshalBinary);
// Run refuses a checkpoint or transports for a row type without one.
// Fail selects keep-going mode (see below), and
// Transports attach remote executors (see Link and internal/remote):
// they lease jobs in batches, have their leases stolen when they
// straggle and requeued when they die, and leave jobs that keep
// killing them to the in-process workers, which take over entirely
// when no transport is live. Only transport leases are ever stolen, so
// a slow in-process job never runs twice.
//
// Pool.OnJobDone is an optional per-job completion hook (absolute
// study index + wall-clock duration) for live progress on big
// matrices; it fires once per job that runs and succeeds, never for
// rows replayed from a checkpoint. ProgressETA adapts it to a log/slog
// logger that reports completed/total counts plus an ETA from a sliding
// window of recent completions. The hook observes jobs, never
// influences them.
//
// # Failure model
//
// Job errors are classified transient or fatal. An error wrapped with
// Transient (detectable via IsTransient) is worth retrying: with
// Pool.Retries > 0 the job is rerun in place up to that many extra
// attempts, with deterministic backoff — seeded yield bursts derived
// from (RetrySeed, index, attempt), never wall-clock sleeps, so a
// retried sweep stays bit-reproducible. Everything else, including
// *PanicError, is fatal on the first attempt. Because retries happen
// inside the job slot, a sweep whose transient failures all resolve
// within budget produces output byte-identical to one that never
// failed. Retry, backoff and fault-injection schedules are keyed on the
// index relative to the checkpoint's resume point on every executor
// (RunOne is the single-job form a remote worker uses), so a job
// settles to the same value or error text wherever it runs.
//
// Fatal errors stop the sweep with the lowest-index failure, unless
// the caller sets Options.Fail: then each fatal failure is delivered to
// the fail sink in strict index order, interleaved with emitted
// successes exactly as a sequential loop would observe them, and the
// sweep keeps going. Checkpoints record such failures as failure frames
// so a resumed run replays the same outcome rather than retrying
// failed indices.
//
// ResumeCheckpoint is the one resume mode. It scans the file and adopts
// the longest valid frame prefix, whatever ends it: a torn final frame
// (the normal outcome of a crash mid-flush), trailing garbage, or a
// complete frame with a bad kind or CRC (a bad disk, a stray write). It
// truncates the file there before anything is appended, and the sweep
// recomputes only what was lost; since jobs are deterministic, the
// output is the uninterrupted run's. Checkpoint.Salvaged reports what
// was dropped. The header is not forgiven: a file that does not start
// with the magic may not be a checkpoint at all and is refused
// untouched, and another format version or study key is refused as a
// mismatch (*KeyMismatchError explains the key field by field with
// Diff) — those are configuration errors, not damage. A damaged header
// the file ends inside (a key length past the end) is refused untouched
// too, since the frames after it may be all the saved work. Only a
// proper prefix of the header this sweep writes, all a torn first
// flush can leave, restarts from job 0.
//
// The fault package supplies the matching test seam: an Injector
// (Pool.Inject) deterministically injects transient job errors, job
// panics, and scheduling delays, and its FS wrapper injects short
// writes that tear the frames a flush appends. All decisions
// are pure hashes of (seed, site, index, attempt), so every injected
// failure schedule replays exactly.
package sweep
