package sim

import (
	"math/rand"
	"testing"
)

// Differential tests: the time-wheel Kernel must dispatch every schedule
// in exactly the (time, insertion-seq) order of ReferenceKernel, the
// retained pre-wheel 4-ary heap. Each scenario drives both kernels with
// an identical randomized workload — times spanning the same-cycle ring,
// the near wheel, and the overflow heap, with ties and nested scheduling
// from inside handlers — and requires identical dispatch sequences and
// identical clock and queue state, including across budget-cut runs and
// Reset.

// scheduler is the kernel surface the differential tests exercise;
// *Kernel and *ReferenceKernel both implement it.
type scheduler interface {
	Now() Cycle
	At(Cycle, func())
	After(Cycle, func())
	Run(uint64) uint64
	Reset()
	Pending() int
}

// stamp records one dispatch: the clock when the handler ran and the
// event's identity.
type stamp struct {
	at Cycle
	id int
}

// randomDelay draws from a mix that covers all three scheduling classes:
// zero (same-cycle ring), small (near wheel), and far-future (overflow).
func randomDelay(rng *rand.Rand) Cycle {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2:
		return Cycle(rng.Intn(4)) // heavy ties at nearby cycles
	case 3:
		return WheelSpan + Cycle(rng.Intn(3*WheelSpan)) // overflow
	default:
		return Cycle(rng.Intn(WheelSpan)) // near wheel
	}
}

// runRandomWorkload schedules n root events at random times on k, each
// handler re-scheduling up to two children, and returns the dispatch
// sequence. The rng drives all choices, so two kernels given the same
// seed see byte-identical workloads as long as their dispatch orders
// agree (any divergence shows up in the compared sequences).
func runRandomWorkload(k scheduler, seed int64, n int) []stamp {
	rng := rand.New(rand.NewSource(seed))
	var got []stamp
	next := n
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			got = append(got, stamp{at: k.Now(), id: id})
			for c := rng.Intn(3); c > 0; c-- {
				cid := next
				next++
				k.After(randomDelay(rng), handler(cid))
			}
		}
	}
	for i := 0; i < n; i++ {
		k.At(Cycle(rng.Intn(4*WheelSpan)), handler(i))
	}
	k.Run(200 * uint64(n)) // generous cap; the workload branches subcritically
	return got
}

func compareStamps(t *testing.T, label string, ref, got []stamp) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: dispatched %d events, reference %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: dispatch %d = %+v, reference %+v", label, i, got[i], ref[i])
		}
	}
}

func compareState(t *testing.T, label string, ref, got scheduler) {
	t.Helper()
	if ref.Now() != got.Now() {
		t.Fatalf("%s: Now = %d, reference %d", label, got.Now(), ref.Now())
	}
	if ref.Pending() != got.Pending() {
		t.Fatalf("%s: Pending = %d, reference %d", label, got.Pending(), ref.Pending())
	}
}

func TestWheelMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ref := runRandomWorkload(NewReferenceKernel(), seed, 150)
		got := runRandomWorkload(NewKernel(), seed, 150)
		compareStamps(t, "random", ref, got)
	}
}

// TestWheelMatchesReferenceTies floods single cycles so every dispatch is
// a tie broken purely by insertion seq, including insertions from inside
// handlers at the current cycle (the same-cycle ring path).
func TestWheelMatchesReferenceTies(t *testing.T) {
	workload := func(k scheduler) []stamp {
		var got []stamp
		next := 300
		for i := 0; i < 300; i++ {
			id := i
			at := Cycle((i % 3) * WheelSpan) // three contested cycles, one per class
			k.At(at, func() {
				got = append(got, stamp{k.Now(), id})
				if id%5 == 0 {
					cid := next
					next++
					k.After(0, func() { got = append(got, stamp{k.Now(), cid}) })
				}
			})
		}
		k.Run(0)
		return got
	}
	compareStamps(t, "ties", workload(NewReferenceKernel()), workload(NewKernel()))
}

// TestWheelMatchesReferenceStopResume stops both kernels mid-run with
// the same event budget, compares the stopped state, then drains and
// compares.
func TestWheelMatchesReferenceStopResume(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		workload := func(k scheduler) ([]stamp, scheduler) {
			rng := rand.New(rand.NewSource(seed))
			var got []stamp
			stopAt := 40 + rng.Intn(40)
			for i := 0; i < 200; i++ {
				id := i
				k.At(Cycle(rng.Intn(3*WheelSpan)), func() {
					got = append(got, stamp{k.Now(), id})
				})
			}
			k.Run(uint64(stopAt))
			return got, k
		}
		refStamps, ref := workload(NewReferenceKernel())
		gotStamps, got := workload(NewKernel())
		compareStamps(t, "stopped prefix", refStamps, gotStamps)
		compareState(t, "stopped", ref, got)

		// Resume in bounded chunks, then drain.
		for ref.Pending() > 0 || got.Pending() > 0 {
			nr, ng := ref.Run(17), got.Run(17)
			if nr != ng {
				t.Fatalf("resume chunk ran %d, reference %d", ng, nr)
			}
			if nr == 0 {
				break
			}
		}
		compareState(t, "drained", ref, got)
	}
}

// TestWheelMatchesReferenceBatchStraddle targets the batched per-cycle
// drain: handlers keep scheduling zero-delay events into the cycle that
// is currently draining (the batch must absorb them in insertion order),
// while bounded Run budgets cut the drain mid-batch so the next Run call
// resumes the same cycle's leftover FIFO. The reference kernel has no
// batch concept, so any ordering or accounting drift at these boundaries
// diverges the sequences.
func TestWheelMatchesReferenceBatchStraddle(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		workload := func(k scheduler) []stamp {
			rng := rand.New(rand.NewSource(seed))
			var got []stamp
			next := 100
			var handler func(id, depth int) func()
			handler = func(id, depth int) func() {
				return func() {
					got = append(got, stamp{at: k.Now(), id: id})
					if depth < 4 && rng.Intn(3) > 0 {
						// Same-cycle child: joins the batch being drained.
						cid := next
						next++
						k.After(0, handler(cid, depth+1))
					}
					if rng.Intn(4) == 0 {
						// Next-cycle child: lands just past the batch boundary.
						cid := next
						next++
						k.After(1, handler(cid, 0))
					}
				}
			}
			// Dense clusters on a handful of contested cycles.
			for i := 0; i < 100; i++ {
				k.At(Cycle(rng.Intn(5)), handler(i, 0))
			}
			// Drain in deliberately awkward budgets (1, 2, 3, ... events) so
			// Run exits inside a cycle's batch repeatedly.
			for budget := uint64(1); k.Pending() > 0 && budget < 64; budget++ {
				k.Run(budget)
			}
			k.Run(0)
			return got
		}
		refStamps := workload(NewReferenceKernel())
		gotStamps := workload(NewKernel())
		compareStamps(t, "batch straddle", refStamps, gotStamps)
	}
}

// TestWheelMatchesReferenceSparse drives single-successor chains, so the
// pending population stays at 0 or 1 and most events pass through the
// one-event register, with successor delays of zero, within the near
// wheel, and beyond WheelSpan. Now and then a handler also schedules a
// leaf at its successor's cycle: that second event demotes the register
// into the ring, a bucket or the overflow heap, and the demoted event
// must still dispatch first. Both kernels step with Run(1), and Now and
// Pending are compared after every step.
func TestWheelMatchesReferenceSparse(t *testing.T) {
	type state struct {
		now     Cycle
		pending int
	}
	var registered, demoted int
	for seed := int64(1); seed <= 20; seed++ {
		workload := func(k scheduler) ([]stamp, []state) {
			wheel, _ := k.(*Kernel)
			rng := rand.New(rand.NewSource(seed))
			var got []stamp
			next := 1
			var handler func(id int) func()
			handler = func(id int) func() {
				return func() {
					got = append(got, stamp{k.Now(), id})
					if next >= 300 {
						return
					}
					var d Cycle
					switch rng.Intn(3) {
					case 0:
						d = 0
					case 1:
						d = 1 + Cycle(rng.Intn(WheelSpan-1))
					default:
						d = WheelSpan + Cycle(rng.Intn(2*WheelSpan))
					}
					at := k.Now() + d
					k.At(at, handler(next))
					next++
					if rng.Intn(8) == 0 {
						if wheel != nil && wheel.oneValid {
							demoted++
						}
						leaf := next
						next++
						k.At(at, func() { got = append(got, stamp{k.Now(), leaf}) })
					}
				}
			}
			k.At(Cycle(rng.Intn(3*WheelSpan)), handler(0))
			var states []state
			for k.Run(1) == 1 {
				states = append(states, state{k.Now(), k.Pending()})
				if wheel != nil && wheel.oneValid {
					registered++
				}
			}
			return got, states
		}
		refStamps, refStates := workload(NewReferenceKernel())
		gotStamps, gotStates := workload(NewKernel())
		compareStamps(t, "sparse", refStamps, gotStamps)
		for i := range refStates {
			if refStates[i] != gotStates[i] {
				t.Fatalf("seed %d step %d: (Now, Pending) = %+v, reference %+v",
					seed, i, gotStates[i], refStates[i])
			}
		}
	}
	if registered == 0 || demoted == 0 {
		t.Fatalf("register held the pending event after %d steps and was demoted %d times; want both > 0",
			registered, demoted)
	}
}

// TestKernelBatchDrainZeroAllocs guards the batch drain path: once the
// node arena is warm, draining dense same-cycle FIFOs — including
// handlers appending into the draining cycle — allocates nothing.
func TestKernelBatchDrainZeroAllocs(t *testing.T) {
	k := NewKernel()
	fns := make([]func(), 64)
	for i := range fns {
		i := i
		fns[i] = func() {
			if i%4 == 0 {
				k.After(0, func() {}) // join the currently-draining batch
			}
		}
	}
	load := func() {
		for _, fn := range fns {
			k.After(1, fn)
		}
		k.Run(0)
	}
	load() // warm the arena, ring, and closure pool
	avg := testing.AllocsPerRun(100, load)
	if avg != 0 {
		t.Errorf("batch drain allocates %.2f/run, want 0", avg)
	}
}

// TestWheelResetMidRunMatchesReference resets both kernels while events
// are still pending (the slow clearing path) and requires the following
// fresh workload to replay identically — seq restart included.
func TestWheelResetMidRunMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		workload := func(k scheduler) []stamp {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				k.At(Cycle(rng.Intn(3*WheelSpan)), func() {})
			}
			k.Run(30) // leave events pending in every structure
			k.Reset()
			return runRandomWorkload(k, seed+100, 80)
		}
		compareStamps(t, "reset", workload(NewReferenceKernel()), workload(NewKernel()))
	}
}

// TestWheelResetEquivalentToFresh pins Reset's contract directly on the
// wheel: a reset kernel replays a workload with the same dispatch
// sequence as a newly constructed one.
func TestWheelResetEquivalentToFresh(t *testing.T) {
	reused := NewKernel()
	runRandomWorkload(reused, 7, 120)
	reused.Reset()
	fresh := NewKernel()
	compareStamps(t, "reset-vs-fresh",
		runRandomWorkload(fresh, 8, 120), runRandomWorkload(reused, 8, 120))
	compareState(t, "reset-vs-fresh", fresh, reused)
}
