package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mixedLatency spreads job durations so completion order differs wildly
// from submission order: early indices are the slowest.
func mixedLatency(i, n int) time.Duration {
	return time.Duration((n-i)%7) * time.Millisecond
}

func TestMapOrderedUnderMixedLatency(t *testing.T) {
	const n = 96
	for _, workers := range []int{1, 2, 4, 16, 200} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			got, err := Collect(context.Background(), New(workers), n,
				func(_ context.Context, i int) (int, error) {
					time.Sleep(mixedLatency(i, n))
					return i * i, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("len = %d, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestStreamEmitsInSubmissionOrder(t *testing.T) {
	const n = 200
	var order []int
	err := Run(context.Background(), New(8), n, Options{}, nil,
		Stateless(func(_ context.Context, i int) (int, error) {
			time.Sleep(mixedLatency(i, n))
			return i, nil
		}),
		func(i, v int) error {
			if i != v {
				t.Fatalf("emit index %d carries value %d", i, v)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("emitted %d of %d", len(order), n)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("emission order broken at %d: got %d", i, v)
		}
	}
}

// TestHammer floods a small pool with far more jobs than workers, all
// touching shared counters, to give the race detector something to bite
// on if the pool's coordination were unsound.
func TestHammer(t *testing.T) {
	const n = 2000
	var started, sum atomic.Int64
	got, err := Collect(context.Background(), New(runtime.NumCPU()*4), n,
		func(_ context.Context, i int) (int, error) {
			started.Add(1)
			if i%13 == 0 {
				time.Sleep(time.Millisecond)
			}
			sum.Add(int64(i))
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != n {
		t.Fatalf("started %d of %d jobs", started.Load(), n)
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	const n = 500
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Collect(ctx, New(4), n, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 20 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Dispatch must stop promptly: only jobs already claimed by the 4
	// workers at cancel time may still run.
	if ran.Load() == n {
		t.Fatal("cancellation did not stop dispatch")
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := Collect(ctx, New(workers), 50, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
}

func TestPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := Collect(context.Background(), New(workers), 64,
				func(_ context.Context, i int) (int, error) {
					if i == 17 {
						panic("boom")
					}
					return i, nil
				})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *PanicError", err, err)
			}
			if pe.Index != 17 || pe.Value != "boom" {
				t.Fatalf("PanicError = {Index:%d Value:%v}", pe.Index, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("panic stack not captured")
			}
		})
	}
}

// TestLowestIndexErrorWins: with many failing jobs completing in
// arbitrary order, the reported error must be the one a sequential loop
// would hit first — every time.
func TestLowestIndexErrorWins(t *testing.T) {
	const n = 120
	fail := map[int]bool{7: true, 8: true, 40: true, 90: true}
	for trial := 0; trial < 20; trial++ {
		_, err := Collect(context.Background(), New(16), n,
			func(_ context.Context, i int) (int, error) {
				time.Sleep(mixedLatency(i, n))
				if fail[i] {
					return 0, fmt.Errorf("job %d failed", i)
				}
				return i, nil
			})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("trial %d: err = %v, want job 7's", trial, err)
		}
	}
}

func TestErrorStopsDispatch(t *testing.T) {
	const n = 10000
	var ran atomic.Int64
	boom := errors.New("early failure")
	_, err := Collect(context.Background(), New(4), n, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(50 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() == n {
		t.Fatal("failure did not stop dispatch")
	}
}

func TestStreamEmitErrorStops(t *testing.T) {
	stopAt := errors.New("enough")
	var emitted []int
	err := Run(context.Background(), New(8), 100, Options{}, nil,
		Stateless(func(_ context.Context, i int) (int, error) { return i, nil }),
		func(i, v int) error {
			emitted = append(emitted, i)
			if i == 5 {
				return stopAt
			}
			return nil
		})
	if !errors.Is(err, stopAt) {
		t.Fatalf("err = %v, want emit error", err)
	}
	if len(emitted) != 6 {
		t.Fatalf("emitted %v, want exactly 0..5", emitted)
	}
}

// TestSingleWorkerIsStrictlySequential pins the -parallel 1 contract:
// jobs run one at a time, in index order.
func TestSingleWorkerIsStrictlySequential(t *testing.T) {
	var order []int // no lock: single-worker jobs must not overlap
	_, err := Collect(context.Background(), New(1), 50,
		func(_ context.Context, i int) (int, error) {
			order = append(order, i)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("execution order broken at %d: got %d", i, v)
		}
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int64
	_, err := Collect(context.Background(), New(1), 50,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, errors.New("stop here")
			}
			return i, nil
		})
	if err == nil || err.Error() != "stop here" {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran %d jobs, want exactly 4", ran.Load())
	}
}

func TestPoolDefaults(t *testing.T) {
	if got := New(0).Workers(); got != runtime.NumCPU() {
		t.Fatalf("New(0).Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := New(-3).Workers(); got != runtime.NumCPU() {
		t.Fatalf("New(-3).Workers() = %d", got)
	}
	var p *Pool
	if got := p.Workers(); got != runtime.NumCPU() {
		t.Fatalf("nil pool Workers() = %d", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("Workers() = %d, want 7", got)
	}
}

func TestZeroJobs(t *testing.T) {
	got, err := Collect(context.Background(), New(8), 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestParallelMatchesSequential is the core determinism property the
// studies rely on: for pure functions of the index, any worker count
// yields exactly the sequential result slice.
func TestParallelMatchesSequential(t *testing.T) {
	const n = 300
	job := func(_ context.Context, i int) (string, error) {
		time.Sleep(mixedLatency(i, n))
		return fmt.Sprintf("r%04d", i*3), nil
	}
	seq, err := Collect(context.Background(), New(1), n, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 32} {
		par, err := Collect(context.Background(), New(workers), n, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: result %d diverged: %q vs %q", workers, i, seq[i], par[i])
			}
		}
	}
}
