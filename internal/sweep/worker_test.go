package sweep_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/sweep"
)

// counter is a toy worker-local state standing in for a run arena.
type counter struct {
	id   int64
	jobs int
}

// TestMapWorkerStateStaysWithinWorker checks the worker-state contract:
// every job sees a state instance, a state never runs two jobs
// concurrently, and the number of states built never exceeds the worker
// count (lazy construction may build fewer).
func TestMapWorkerStateStaysWithinWorker(t *testing.T) {
	const n = 64
	var built atomic.Int64
	newState := func() *counter {
		return &counter{id: built.Add(1)}
	}
	out, err := sweep.CollectWorker(context.Background(), sweep.New(4), n, newState,
		func(_ context.Context, s *counter, i int) (int64, error) {
			s.jobs++ // unsynchronized: the race detector verifies exclusivity
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			return s.id, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	if b := built.Load(); b < 1 || b > 4 {
		t.Fatalf("built %d states for a 4-worker pool", b)
	}
	for i, id := range out {
		if id < 1 || id > built.Load() {
			t.Fatalf("job %d ran with unknown state id %d", i, id)
		}
	}
}

// TestMapWorkerSequentialBuildsOneState pins the one-worker pool:
// a single state instance carries the whole sweep, in order.
func TestMapWorkerSequentialBuildsOneState(t *testing.T) {
	var built, order []int
	_, err := sweep.CollectWorker(context.Background(), sweep.New(1), 5,
		func() int { built = append(built, len(built)); return 42 },
		func(_ context.Context, s int, i int) (int, error) {
			if s != 42 {
				t.Fatalf("job %d got state %d", i, s)
			}
			order = append(order, i)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 1 {
		t.Fatalf("one worker built %d states, want 1", len(built))
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("sequential order = %v", order)
	}
}

// TestOnJobDoneReportsEveryJob checks the progress hook fires exactly
// once per successful job with a plausible duration, and before the
// job's row is delivered, with one worker and with several.
func TestOnJobDoneReportsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 16
		var (
			mu   sync.Mutex
			seen = map[int]time.Duration{}
		)
		p := sweep.New(workers)
		p.OnJobDone = func(i int, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[i]; dup {
				t.Errorf("workers=%d: job %d reported twice", workers, i)
			}
			seen[i] = d
		}
		err := sweep.Run(context.Background(), p, n, sweep.Options{}, nil,
			sweep.Stateless(func(_ context.Context, i int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				return i, nil
			}),
			func(i, _ int) error {
				mu.Lock()
				defer mu.Unlock()
				if _, ok := seen[i]; !ok {
					t.Errorf("workers=%d: job %d delivered before its hook fired", workers, i)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: hook fired for %d jobs, want %d", workers, len(seen), n)
		}
		for i, d := range seen {
			if d <= 0 {
				t.Errorf("workers=%d: job %d reported non-positive duration %v", workers, i, d)
			}
		}
	}
}

// TestOnJobDoneSkipsFailedJobs checks that failed jobs do not report.
func TestOnJobDoneSkipsFailedJobs(t *testing.T) {
	var fired atomic.Int64
	p := sweep.New(1)
	p.OnJobDone = func(int, time.Duration) { fired.Add(1) }
	_, err := sweep.Collect(context.Background(), p, 5,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				return 0, fmt.Errorf("boom")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if got := fired.Load(); got != 3 {
		t.Fatalf("hook fired %d times, want 3 (jobs 0-2)", got)
	}
}

// TestProgressETALogsTotalsAndETA checks the ETA adapter: every job
// logs completed/total, and an eta attribute appears once enough
// completions exist to estimate a rate.
func TestProgressETALogsTotalsAndETA(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	const n = 12
	p := sweep.New(4)
	p.OnJobDone = sweep.ProgressETA(logger, n)
	_, err := sweep.Collect(context.Background(), p, n,
		func(_ context.Context, i int) (int, error) {
			time.Sleep(200 * time.Microsecond)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != n {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), n, out)
	}
	if !strings.Contains(out, fmt.Sprintf("total=%d", n)) {
		t.Errorf("total never logged:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("completed=%d", n)) {
		t.Errorf("final completed count never logged:\n%s", out)
	}
	if !strings.Contains(out, "eta=") {
		t.Errorf("no eta attribute logged:\n%s", out)
	}
}

// lockedWriter serializes concurrent handler writes in the test.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
