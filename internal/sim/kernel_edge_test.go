package sim

import (
	"testing"
)

// These tests pin the Kernel semantics every queue rewrite must preserve
// (they survived the pointer-heap → value-heap → time-wheel rewrites):
// a run cut by its event budget in the middle of the queue, and
// tie-breaking by insertion order under heavy same-cycle load —
// including events scheduled at the current cycle from inside a handler.

// TestStopMidRunKeepsClock cuts a run with its budget: the clock stays
// at the last dispatched event's time, not the next pending one's.
func TestStopMidRunKeepsClock(t *testing.T) {
	k := NewKernel()
	for i := Cycle(1); i <= 5; i++ {
		k.At(i*10, func() {})
	}
	if n := k.Run(3); n != 3 {
		t.Fatalf("Run(3) executed %d", n)
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30 (the last dispatched event's time)", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	if n := k.Run(0); n != 2 || k.Now() != 50 {
		t.Fatalf("resume executed %d at %d, want 2 at 50", n, k.Now())
	}
}

// TestHeavySameCycleTieBreak schedules thousands of events at one cycle —
// including events appended at that same cycle from inside handlers — and
// requires strict global insertion-order dispatch. This is the pattern a
// 16-node directory burst produces, and the ordering property that makes
// the simulator bit-reproducible.
func TestHeavySameCycleTieBreak(t *testing.T) {
	k := NewKernel()
	const base = 3000
	var got []int
	next := base
	for i := 0; i < base; i++ {
		i := i
		k.At(7, func() {
			got = append(got, i)
			// Every 10th handler appends two more same-cycle events; they
			// must run after everything already scheduled.
			if i%10 == 0 {
				for j := 0; j < 2; j++ {
					id := next
					next++
					k.At(7, func() { got = append(got, id) })
				}
			}
		})
	}
	k.Run(0)
	if len(got) != next {
		t.Fatalf("executed %d events, want %d", len(got), next)
	}
	// The first base dispatches are 0..base-1 in order; the appended ones
	// follow in append order.
	for i, v := range got {
		if i < base && v != i {
			t.Fatalf("position %d got %d; pre-scheduled events out of insertion order", i, v)
		}
		if i >= base && v != i {
			t.Fatalf("position %d got %d; same-cycle appends out of insertion order", i, v)
		}
	}
	if k.Now() != 7 {
		t.Fatalf("Now = %d, want 7", k.Now())
	}
}

// TestKernelScheduleZeroAllocs is the acceptance guard for the event
// queue: once its storage is warm, scheduling and dispatching pre-built
// closures must not allocate. (The wheel-specific per-tier guards live in
// wheel_bench_test.go.)
func TestKernelScheduleZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the queue capacity.
	for i := 0; i < 256; i++ {
		k.At(Cycle(i), fn)
	}
	k.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			k.After(Cycle(i%5), fn)
		}
		k.Run(0)
	})
	if avg != 0 {
		t.Errorf("schedule+dispatch allocates %.2f/run, want 0", avg)
	}
}

// BenchmarkKernelSchedule measures steady-state schedule+dispatch with a
// standing event population, the kernel's hot loop in every simulation.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	const standing = 64
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining > 0 {
			remaining--
			k.After(Cycle(remaining%7+1), fn)
		}
	}
	for i := 0; i < standing; i++ {
		k.At(Cycle(i%7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(uint64(b.N))
}
