package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"specdsm/internal/fault"
	"specdsm/internal/report"
)

// Pool is the execution policy of Run: in-process worker count, merge
// window, retry budget, fault injector and completion hook. The zero
// value and New(0) both select runtime.NumCPU() workers. Pools carry
// no per-sweep state and may be reused and shared freely; a non-nil
// OnJobDone must itself be safe for concurrent use.
type Pool struct {
	workers int
	// Window is the size of Run's lease board: no executor starts job i
	// until i falls within Window slots of the next index to be
	// delivered, so a sweep's buffered results — and the board itself —
	// are bounded by the window, not by the job count. Zero selects
	// max(4×executors, 64), where a transport counts as four executors.
	// The window only throttles; it never changes results or their
	// order.
	Window int
	// OnJobDone, when non-nil, is invoked once per job that runs and
	// succeeds, with the job's absolute study index and wall-clock
	// duration, from the executor that settled it — concurrently and
	// out of index order. Jobs replayed from a checkpoint do not fire
	// it. It exists for progress reporting (see ProgressETA) and must
	// not affect results.
	OnJobDone func(index int, d time.Duration)
	// Retries is the per-job retry budget for transient failures: a job
	// whose error satisfies IsTransient is re-run in place — same index,
	// same worker, same worker-local state — up to Retries more times
	// before the failure becomes permanent. Fatal errors (anything not
	// marked Transient, including *PanicError) are never retried.
	// Because the retry happens inside the job slot, the ordered merge
	// is undisturbed: a sweep whose transient faults all succeed within
	// budget emits output byte-identical to a fault-free run.
	Retries int
	// RetrySeed seeds the deterministic backoff between retry attempts.
	// Backoff is measured in scheduler yields (attempt count), never
	// wall time, so retried sweeps stay reproducible and fast.
	RetrySeed uint64
	// Inject, when non-nil, threads a deterministic fault injector into
	// every job attempt: seeded transient errors, panics, and
	// scheduling delays (see internal/fault). The disabled path costs
	// one nil check per job.
	Inject *fault.Injector
}

// New returns a pool with the given worker count; n <= 0 selects
// runtime.NumCPU().
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{workers: n}
}

// Workers reports the configured worker count.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.NumCPU()
	}
	return p.workers
}

// window resolves the lease-board size for the given executor count.
func (p *Pool) window(workers int) int {
	if p != nil && p.Window > 0 {
		return p.Window
	}
	return max(4*workers, 64)
}

// transientError marks an error as retryable. It is created by
// Transient and detected by IsTransient; the wrapped error stays
// reachable through errors.Is/As.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as a transient failure: one that a bounded
// retry may clear (a lost RPC, a briefly unavailable resource, an
// injected fault). The pool re-runs transient failures in place when
// Pool.Retries allows; everything else — including *PanicError — is
// fatal on first occurrence. Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err carries the Transient marker anywhere
// in its chain.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// PanicError is a panic recovered from a job, preserving the job index,
// the panic value, and the goroutine stack at the panic site. A
// PanicError is always fatal: panics indicate bugs, not conditions a
// retry could clear.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error includes the job index, the panic value, and a trimmed one-line
// stack — enough to locate a panicking worker from study output alone.
// The trimmed form is deterministic (no addresses, no goroutine IDs,
// and no frames from the pool machinery, which differ between the
// sequential and parallel paths), so output containing it stays
// byte-identical at every worker count. The full raw stack remains in
// Stack.
func (e *PanicError) Error() string {
	s := trimStack(e.Stack)
	if s == "" {
		return fmt.Sprintf("sweep: job %d panicked: %v", e.Index, e.Value)
	}
	return fmt.Sprintf("sweep: job %d panicked: %v [%s]", e.Index, e.Value, s)
}

// trimStackFrames caps how many frames the one-line stack keeps.
const trimStackFrames = 6

// trimStack compresses a debug.Stack dump into a deterministic single
// line: up to trimStackFrames frames of "func (file:line)" joined by
// " < ", innermost first. Frames above the panic site (runtime
// machinery, the pool's recover) and below the pool's job runner are
// dropped, and addresses/offsets are stripped, so two identical panics
// — whatever goroutine or worker path they happen on — trim to the same
// text. The job runner's own frame, the site of an injected panic,
// keeps its name but not its position, so an edit to this package
// cannot move a job's failure text.
func trimStack(stack []byte) string {
	lines := strings.Split(string(bytes.TrimSpace(stack)), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		lines = lines[1:] // drop the "goroutine N [running]:" header
	}
	var frames []string
	for i := 0; i+1 < len(lines); i += 2 {
		fn, loc := lines[i], strings.TrimSpace(lines[i+1])
		switch {
		case strings.HasPrefix(fn, "runtime"),
			strings.HasPrefix(fn, "panic("),
			strings.Contains(fn, "debug.Stack"),
			strings.Contains(fn, "internal/sweep.runOnce") && strings.Contains(fn, ".func"):
			// Machinery above the panic site: the stack grabber, the
			// pool's deferred recover, and the runtime's panic plumbing.
			continue
		}
		if strings.Contains(fn, "specdsm/internal/sweep.") {
			// The pool's own job runner: everything below differs
			// between Run's workers and RunOne's callers. If the panic
			// originated here (an injected panic), keep this one frame
			// so the line is never empty, by name only: its position
			// would tie every injected failure's text to this file's
			// line numbers.
			if len(frames) == 0 {
				if strings.Contains(fn, "internal/sweep.runOnce") {
					loc = ""
				}
				frames = append(frames, frameText(fn, loc))
			}
			break
		}
		frames = append(frames, frameText(fn, loc))
		if len(frames) == trimStackFrames {
			frames = append(frames, "...")
			break
		}
	}
	return strings.Join(frames, " < ")
}

// frameText renders one stack frame as "func (file:line)", dropping the
// argument list (which prints raw pointer words) and the "+0x.." offset.
func frameText(fn, loc string) string {
	if i := strings.LastIndexByte(fn, '('); i > 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(loc, " +0x"); i > 0 {
		loc = loc[:i]
	}
	if i := strings.LastIndexByte(loc, '/'); i >= 0 {
		loc = loc[i+1:]
	}
	if loc == "" {
		return fn
	}
	return fn + " (" + loc + ")"
}

// RunOne executes job base+j alone under the pool's retry policy, the
// code path Run's in-process workers take per job, for executors that
// receive job indices one at a time (a remote shard worker). As in Run,
// fn sees the absolute index base+j while the retry backoff, the fault
// injector and a *PanicError are keyed on j, the index relative to the
// resume point, so a job settles to the same value or error text on
// every executor.
func RunOne[S, T any](ctx context.Context, p *Pool, s S, base, j int, fn func(ctx context.Context, s S, i int) (T, error)) (T, error) {
	v, _, err := runJob(ctx, p, s, base, j, fn)
	return v, err
}

// runJob runs job base+j under the pool's retry policy, re-running it
// in place while the error is Transient, budget remains, and the
// context is live, and reports the duration of the last attempt.
func runJob[S, T any](ctx context.Context, p *Pool, s S, base, j int, fn func(ctx context.Context, s S, i int) (T, error)) (T, time.Duration, error) {
	var retries int
	var seed uint64
	if p != nil {
		retries, seed = p.Retries, p.RetrySeed
	}
	for attempt := 0; ; attempt++ {
		start := time.Now()
		v, err := runOnce(ctx, p, s, base, j, attempt, fn)
		if err == nil || attempt >= retries || !IsTransient(err) || ctx.Err() != nil {
			return v, time.Since(start), err
		}
		backoff(seed, j, attempt)
	}
}

// runOnce executes a single attempt of job base+j: injector seams first
// (delay, panic, transient error), then the job itself, with panics
// converted to *PanicError.
func runOnce[S, T any](ctx context.Context, p *Pool, s S, base, j, attempt int, fn func(ctx context.Context, s S, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: j, Value: r, Stack: debug.Stack()}
		}
	}()
	if inj := p.injector(); inj != nil {
		inj.JobDelay(j, attempt)
		if inj.JobPanic(j, attempt) {
			panic(fmt.Sprintf("%v: injected panic (job %d, attempt %d)", fault.ErrInjected, j, attempt))
		}
		if inj.JobTransient(j, attempt) {
			return v, Transient(fmt.Errorf("%w: transient job fault (job %d, attempt %d)", fault.ErrInjected, j, attempt))
		}
	}
	return fn(ctx, s, base+j)
}

// backoffSite salts the backoff-length hash away from the injector's
// decision sites.
const backoffSite uint64 = 0xBACC0FF

// backoff parks job i between transient attempts: a deterministic burst
// of scheduler yields whose length grows with the attempt number plus a
// small seeded jitter. Measuring backoff in yields rather than wall
// time keeps retried sweeps reproducible and keeps tests fast.
func backoff(seed uint64, i, attempt int) {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	n := (1 << shift) + int(fault.Mix(seed, backoffSite, uint64(i), uint64(attempt))%8)
	for k := 0; k < n; k++ {
		runtime.Gosched()
	}
}

// injector returns the pool's fault injector, tolerating nil pools.
func (p *Pool) injector() *fault.Injector {
	if p == nil {
		return nil
	}
	return p.Inject
}

// etaWindow is how many recent completion timestamps ProgressETA keeps:
// the ETA tracks the *current* completion rate (workers warmed up, caches
// hot) rather than averaging over the whole sweep's history.
const etaWindow = 32

// ProgressETA returns an OnJobDone callback for a sweep of known total
// job count: every completed job logs, through logger at Info level,
// its index, completed/total, duration, and an ETA estimated from the
// completion rate over a sliding window of the most recent completions
// (report.Rolling). The callback is safe for concurrent use, so it can
// drive a multi-worker pool directly, and only observes the sweep:
//
//	pool := sweep.New(cfg.Parallel)
//	pool.OnJobDone = sweep.ProgressETA(slog.Default(), jobs)
func ProgressETA(logger *slog.Logger, total int) func(index int, d time.Duration) {
	var (
		mu    sync.Mutex
		times = report.NewRolling(etaWindow)
		done  int64
	)
	start := time.Now()
	return func(index int, d time.Duration) {
		elapsed := time.Since(start)
		mu.Lock()
		done++
		n := done
		times.Add(float64(elapsed))
		remaining := float64(total) - float64(n)
		var eta time.Duration
		if span := times.Last() - times.First(); times.N() >= 2 && span > 0 && remaining > 0 {
			// Windowed rate: N()-1 completions over the window's span.
			perJob := span / float64(times.N()-1)
			eta = time.Duration(remaining * perJob)
		} else if n > 0 && remaining > 0 {
			eta = time.Duration(remaining * float64(elapsed) / float64(n))
		}
		mu.Unlock()
		logger.Info("sweep job done",
			"index", index, "completed", n, "total", total,
			"dur", d.Round(time.Millisecond), "eta", eta.Round(100*time.Millisecond))
	}
}
