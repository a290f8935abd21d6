package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Cycle
	for _, c := range []Cycle{30, 10, 20, 5, 25} {
		c := c
		k.At(c, func() { order = append(order, c) })
	}
	k.Run(0)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("executed %d events, want 5", len(order))
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30", k.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { order = append(order, i) })
	}
	k.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not in insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Cycle = -1
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run(0)
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		k.At(5, func() {})
	})
	k.Run(0)
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	k.After(-1, func() {})
}

// TestStop ends a run with its event budget, the only way a run stops
// with events pending, and resumes it.
func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := Cycle(1); i <= 10; i++ {
		k.At(i, func() { count++ })
	}
	n := k.Run(3)
	if n != 3 || count != 3 {
		t.Fatalf("ran %d events (count %d), want 3", n, count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", k.Pending())
	}
	// Run can resume after a budget cut.
	n = k.Run(0)
	if n != 7 {
		t.Fatalf("resume ran %d, want 7", n)
	}
}

func TestMaxEvents(t *testing.T) {
	k := NewKernel()
	for i := Cycle(1); i <= 10; i++ {
		k.At(i, func() {})
	}
	if n := k.Run(4); n != 4 {
		t.Fatalf("Run(4) executed %d", n)
	}
	if k.Pending() != 6 {
		t.Fatalf("pending = %d", k.Pending())
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.After(1, recurse)
		}
	}
	k.At(0, recurse)
	k.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != 99 {
		t.Fatalf("Now = %d, want 99", k.Now())
	}
}

// Randomized ordering property: regardless of insertion order, dispatch is
// globally sorted by (time, insertion seq).
func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		k := NewKernel()
		type stamp struct {
			at  Cycle
			seq int
		}
		var got []stamp
		n := 200
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(50))
			i := i
			k.At(at, func() { got = append(got, stamp{at, i}) })
		}
		k.Run(0)
		if len(got) != n {
			t.Fatalf("executed %d, want %d", len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i].at < got[i-1].at {
				t.Fatalf("trial %d: out of time order at %d", trial, i)
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				t.Fatalf("trial %d: tie broken out of insertion order", trial)
			}
		}
	}
}

// TestExecutedCounter checks that Run's return value counts every
// dispatched event, including same-cycle events scheduled from handlers,
// and that budget-cut runs add up to the whole run.
func TestExecutedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.At(Cycle(i), func() { k.After(0, func() {}) })
	}
	total := k.Run(2)
	total += k.Run(5)
	total += k.Run(0)
	if total != 10 {
		t.Fatalf("Run returned %d events in total, want 10", total)
	}
	if k.Run(0) != 0 {
		t.Fatal("Run on a drained kernel dispatched events")
	}
}
