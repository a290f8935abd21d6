package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// FailFunc receives a fatal job failure in keep-going mode. It is
// called from the same goroutine as emit, in strict index order
// interleaved with emissions: for every index exactly one of emit or
// fail runs. Returning a non-nil error stops the sweep, exactly as an
// emit error would.
type FailFunc func(index int, err error) error

// Options configures one Run beyond its jobs. The zero value runs the
// sweep on in-process workers only, without persistence, and stops at
// the first failed job.
type Options struct {
	// Checkpoint, when non-nil, makes the sweep resumable: its frames
	// are replayed through emit (and Fail) with their original indices,
	// only the remaining jobs run, and every newly settled job is
	// appended before it is delivered. The checkpoint is flushed on its
	// own cadence and once more when Run returns, successfully or not.
	Checkpoint *Checkpoint
	// Fail, when non-nil, selects keep-going mode: a job whose failure
	// is fatal (after the pool's retry budget) reaches Fail in its index
	// position, and is recorded as a failure frame, instead of stopping
	// the sweep.
	Fail FailFunc
	// Transports are executors outside this process, one per remote
	// shard. While any of them is live or has not yet reported, the
	// in-process workers only take jobs the transports gave up on (see
	// Link.Requeue); once every transport is down they take all work.
	Transports []Transport
}

// Transport executes jobs outside this process. Run starts each
// transport once, on its own goroutine, and cancels ctx when the sweep
// ends; a transport that has returned counts as down.
type Transport func(ctx context.Context, l Link)

// Link is a transport's handle on a running sweep's lease board. Job
// indices on a link count from the checkpoint's resume point, so the
// retry and fault schedules a remote executor applies match the
// in-process ones.
type Link interface {
	// SetLive reports whether the transport can execute jobs now.
	SetLive(live bool)
	// Claim leases up to max unclaimed jobs in the merge window, lowest
	// index first. With none left it steals the oldest transport lease
	// older than stealAfter (one job). Nil means nothing to do now.
	Claim(max int, stealAfter time.Duration) []int
	// Settle records job j's outcome, first write wins: row is the
	// row's binary encoding on success (decoded with the row type's
	// UnmarshalBinary), errText carries a job failure otherwise, and d
	// is the duration Pool.OnJobDone reports. A row that does not
	// decode is a transport failure, not a job outcome: Settle returns
	// the error and leaves j leased, for the transport to drop its
	// session and Requeue.
	Settle(j int, row []byte, errText string, d time.Duration) error
	// Requeue hands a dead session's unanswered leases back. A job
	// requeued maxRedispatch times is left to the in-process workers.
	Requeue(jobs []int, maxRedispatch int)
	// Finished reports whether the sweep is over.
	Finished() bool
}

// Run runs fn for every index in [0, n) and delivers each result to
// emit in index order, on the calling goroutine, as soon as it and all
// its predecessors have settled. Jobs run on the pool's in-process
// workers and on any transports in o, which all claim from one lease
// board of Pool.Window slots; each worker builds its state with
// newState (nil means the zero S) before its first job and threads it
// through every job it claims.
//
// The outcome is that of a sequential loop: a failed job stops the
// sweep with its error, and nothing at or after its index is emitted
// (in keep-going mode it reaches o.Fail instead), a non-nil error from
// emit or Fail stops the sweep and is returned, and cancelling ctx
// stops it with ctx.Err(). Results, their order, and the error
// reported are the same at every worker count and on every executor.
func Run[S, T any](ctx context.Context, p *Pool, n int, o Options, newState func() S,
	fn func(ctx context.Context, s S, i int) (T, error), emit func(i int, v T) error) (err error) {
	ck, base := o.Checkpoint, 0
	if (ck != nil || len(o.Transports) > 0) && !hasCodec[T]() {
		return fmt.Errorf("sweep: row type %v has no binary codec (AppendBinary and UnmarshalBinary), so it cannot reach a checkpoint or a transport", reflect.TypeFor[T]())
	}
	if ck != nil {
		if ck.rows > n {
			return ck.mismatch("holds %d frames but the sweep has only %d jobs", ck.rows, n)
		}
		if err := replay(ck, emit, o.Fail); err != nil {
			return err
		}
		base = ck.rows
	}
	if base >= n || ctx.Err() != nil {
		return ctx.Err()
	}
	if ck != nil {
		// Whatever settled is the resume point, even when the sweep
		// failed or was cancelled. The sweep's own error wins.
		defer func() {
			if ferr := ck.Flush(); err == nil {
				err = ferr
			}
		}()
	}

	m := n - base
	workers := min(p.Workers(), m)
	// A transport claims in batches, so it counts as four executors
	// when sizing the default window.
	b := newBoard[T](m, p.window(workers+4*len(o.Transports)), len(o.Transports), o.Fail == nil)
	if p != nil && p.OnJobDone != nil {
		hook := p.OnJobDone
		b.onDone = func(j int, d time.Duration) { hook(base+j, d) }
	}
	ctx, cancel := context.WithCancel(ctx)
	context.AfterFunc(ctx, b.close)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			built := false
			for {
				j, ok := b.claim()
				if !ok {
					return
				}
				if !built && newState != nil {
					s, built = newState(), true
				}
				v, d, err := runJob(ctx, p, s, base, j, fn)
				b.settle(j, v, err, d)
			}
		}()
	}
	for k, t := range o.Transports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := link[T]{b, k}
			t(ctx, l)
			l.SetLive(false)
		}()
	}

	for j := range m {
		v, jerr, ok := b.take(j)
		if !ok || ctx.Err() != nil {
			return ctx.Err()
		}
		switch i := base + j; {
		case jerr != nil && o.Fail == nil:
			return jerr
		case jerr != nil:
			if ck != nil {
				if err := ck.AppendFail(jerr); err != nil {
					return err
				}
			}
			if err := o.Fail(i, jerr); err != nil {
				return err
			}
		default:
			if ck != nil {
				if err := AppendRow(ck, v); err != nil {
					return err
				}
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Slot states on the lease board.
const (
	slotFree     uint8 = iota // unclaimed, or requeued by a dead session
	slotLeased                // an executor is running it
	slotSettling              // won by a success whose hook is running
	slotSettled               // result or failure waiting for delivery
)

// slot is one window position of the lease board.
type slot[T any] struct {
	state   uint8
	remote  bool // leased by a transport: stealable, requeued if its session dies
	poison  bool // transports gave up on it: in-process workers only
	fails   int  // transport sessions that died holding it
	leaseAt time.Time
	v       T
	err     error
}

// board is the lease board of one Run. Job j lives in ring[j%window]
// from the moment it enters the window until it is delivered, when the
// slot is cleared for job j+window, so board memory is O(window)
// whatever the job count.
type board[T any] struct {
	mu   sync.Mutex
	cond sync.Cond
	ring []slot[T]
	n    int // jobs to run
	next int // next job to deliver
	// stop bounds claims in stop-on-error mode: nothing at or past it
	// runs once a failure below it has settled. Jobs below still run, so
	// an in-flight lower failure wins, as in a sequential loop.
	stop        int
	stopOnError bool
	links       []int8 // per transport: 0 not yet reported, 1 live, -1 down
	closed      bool
	onDone      func(j int, d time.Duration)
}

func newBoard[T any](n, window, transports int, stopOnError bool) *board[T] {
	b := &board[T]{ring: make([]slot[T], window), n: n, stop: n, stopOnError: stopOnError, links: make([]int8, transports)}
	b.cond.L = &b.mu
	return b
}

func (b *board[T]) slot(j int) *slot[T] { return &b.ring[j%len(b.ring)] }

// limit is the first job no executor may claim (or settle).
func (b *board[T]) limit() int { return min(b.next+len(b.ring), b.stop) }

// broadcast wakes every waiter after a state change made under the lock.
func (b *board[T]) broadcast() {
	b.mu.Unlock()
	b.cond.Broadcast()
}

// claim blocks until an in-process worker may run a job and leases it
// to the worker, or reports false once the sweep is over. In-process
// leases are never stolen or requeued, so a slow local job runs once.
func (b *board[T]) claim() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed {
		all := true // no transport is live or still connecting
		for _, l := range b.links {
			all = all && l < 0
		}
		for j := b.next; j < b.limit(); j++ {
			if s := b.slot(j); s.state == slotFree && (all || s.poison) {
				s.state = slotLeased
				return j, true
			}
		}
		b.cond.Wait()
	}
	return 0, false
}

// settle records job j's outcome unless it was already settled or
// delivered. A first success fires the completion hook before the
// result is published, so the hook always runs before j is delivered.
func (b *board[T]) settle(j int, v T, err error, d time.Duration) {
	b.mu.Lock()
	if b.closed || j < b.next || j >= b.limit() || b.slot(j).state >= slotSettling {
		b.mu.Unlock()
		return
	}
	s := b.slot(j)
	if err == nil && b.onDone != nil {
		s.state = slotSettling
		b.mu.Unlock()
		b.onDone(j, d)
		b.mu.Lock()
	}
	s.state, s.v, s.err = slotSettled, v, err
	if err != nil && b.stopOnError {
		b.stop = min(b.stop, j+1)
	}
	b.broadcast()
}

// take waits for job j (the next to deliver) to settle, clears its slot
// and slides the window; ok is false if the sweep was cancelled first.
func (b *board[T]) take(j int) (v T, err error, ok bool) {
	b.mu.Lock()
	s := b.slot(j)
	for s.state != slotSettled {
		if b.closed {
			b.mu.Unlock()
			return v, nil, false
		}
		b.cond.Wait()
	}
	v, err = s.v, s.err
	*s = slot[T]{}
	b.next++
	b.broadcast()
	return v, err, true
}

func (b *board[T]) close() {
	b.mu.Lock()
	b.closed = true
	b.broadcast()
}

// link is the board as transport k sees it.
type link[T any] struct {
	b *board[T]
	k int
}

func (l link[T]) SetLive(live bool) {
	state := int8(-1)
	if live {
		state = 1
	}
	l.b.mu.Lock()
	l.b.links[l.k] = state
	l.b.broadcast()
}

func (l link[T]) Claim(max int, stealAfter time.Duration) []int {
	b, now := l.b, time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	var got []int
	steal := -1
	for j := b.next; j < b.limit() && len(got) < max && !b.closed; j++ {
		switch s := b.slot(j); {
		case s.state == slotFree && !s.poison:
			s.state, s.remote, s.leaseAt = slotLeased, true, now
			got = append(got, j)
		case s.state == slotLeased && s.remote && now.Sub(s.leaseAt) >= stealAfter &&
			(steal < 0 || s.leaseAt.Before(b.slot(steal).leaseAt)):
			steal = j
		}
	}
	if got == nil && steal >= 0 {
		b.slot(steal).leaseAt = now
		got = []int{steal}
	}
	return got
}

func (l link[T]) Settle(j int, row []byte, errText string, d time.Duration) error {
	var v T
	var err error
	if errText != "" {
		err = errors.New(errText)
	} else if v, err = decodeRow[T](row); err != nil {
		return fmt.Errorf("job %d: decoding row: %w", j, err)
	}
	l.b.settle(j, v, err, d)
	return nil
}

func (l link[T]) Requeue(jobs []int, maxRedispatch int) {
	b := l.b
	b.mu.Lock()
	for _, j := range jobs {
		if j < b.next || j >= b.limit() {
			continue
		}
		if s := b.slot(j); s.state == slotLeased && s.remote {
			s.state, s.remote = slotFree, false
			s.fails++
			s.poison = s.fails >= maxRedispatch
		}
	}
	b.broadcast()
}

func (l link[T]) Finished() bool {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	return l.b.closed || l.b.next >= l.b.n
}
