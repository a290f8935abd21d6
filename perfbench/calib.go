package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose speed drifts
// by tens of percent within minutes as co-tenants come and go. That
// moves every host-time metric of a run, CPU time included, whatever
// the program does. A timed run therefore follows each round with a
// calibration burst: fixed work on every worker at once that touches
// nothing of the program under test. A burst is a dependent-arithmetic
// loop, which tracks the core's clock and contention for it, then a
// dependent random walk over a table larger than the private caches,
// which tracks contention for the shared cache and memory. The run's
// host speed is calibNominal over the geometric mean of the two
// median burst times, once in wall time and once in CPU time, and the
// timed metrics are reported at the nominal speed: a change in the
// program moves them, a change in the host cancels out.
const (
	calibArithSteps = 1 << 22 // per worker per burst
	calibWalkSteps  = 1 << 18 // per worker per burst
	calibWalkWords  = 1 << 19 // 4 MiB table per worker
)

// calibNominal is the calibration time, per worker, that counts as
// speed 1: about what an unloaded 2-vCPU Intel Xeon VM takes with
// Go 1.24. It only fixes the scale the timed metrics are reported at.
const calibNominal = 15 * time.Millisecond

// burstTime is one calibration loop's wall time and the CPU time its
// worker threads used, in seconds.
type burstTime struct{ wall, cpu float64 }

// calibration collects a run's bursts.
type calibration struct {
	arith, walk []burstTime
	tables      [workers][]uint64
	sink        [workers]uint64
}

// burst runs one calibration burst and records its times.
func (c *calibration) burst() {
	if c.tables[0] == nil {
		for g := range c.tables {
			c.tables[g] = make([]uint64, calibWalkWords)
			calibWalk(c.tables[g], calibWalkWords) // fault the pages in
		}
	}
	// The round's garbage is collected first, so that no GC worker
	// competes with the burst.
	runtime.GC()
	c.arith = append(c.arith, onWorkers(func(g int) { c.sink[g] += calibArith(uint64(g), calibArithSteps) }))
	c.walk = append(c.walk, onWorkers(func(g int) { calibWalk(c.tables[g], calibWalkSteps) }))
}

// onWorkers runs f on workers goroutines at once, each locked to its
// own thread, and returns the wall time until all are done and the
// CPU time of their threads.
func onWorkers(f func(g int)) burstTime {
	var wg sync.WaitGroup
	cpu := make([]float64, workers)
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			f(g)
			cpu[g] = threadCPU() - t0
		}()
	}
	wg.Wait()
	return burstTime{wall: time.Since(start).Seconds(), cpu: sum(cpu)}
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does
// not name.
const rusageThread = 1

// threadCPU is the CPU time (user + system) of the calling thread so
// far, in seconds.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// speeds returns the host's speed during the run relative to
// calibNominal, in wall time and in CPU time: above 1 when the host
// ran faster than nominal. Both are 1 when no burst ran.
func (c *calibration) speeds() (wall, cpu float64) {
	if len(c.arith) == 0 {
		return 1, 1
	}
	ref := func(pick func(burstTime) float64) float64 {
		med := func(bs []burstTime) float64 {
			xs := make([]float64, len(bs))
			for i, b := range bs {
				xs[i] = pick(b)
			}
			return median(xs)
		}
		return math.Sqrt(med(c.arith) * med(c.walk))
	}
	nominal := calibNominal.Seconds()
	return nominal / ref(func(b burstTime) float64 { return b.wall }),
		workers * nominal / ref(func(b burstTime) float64 { return b.cpu })
}

// calibArith is a chain of dependent xorshift-multiply steps.
func calibArith(seed uint64, steps int) uint64 {
	x, y := 0x9e3779b97f4a7c15+seed, uint64(1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y = y*x + x>>3
	}
	return y
}

// calibWalk is a chain of dependent random reads and writes over t,
// whose length must be a power of two.
func calibWalk(t []uint64, steps int) {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(t) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		t[j] += x
		x += t[(j*7+1)&mask]
	}
}
