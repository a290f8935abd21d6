// Package fault is a deterministic, seeded fault injector for the sweep
// engine and its checkpoint layer.
//
// Every decision an Injector makes — "does job 17's second attempt fail
// transiently?", "does the 40th checkpoint write tear?" — is a pure
// function of the injector's seed and the coordinates of the event
// (site, index, attempt or operation count). No wall clock and no
// global rand are consulted, so a fault schedule replays identically
// across runs, worker counts, and goroutine interleavings: the property
// that lets the chaos harness byte-compare a fault-injected sweep
// against a clean one.
//
// Two seams consume an Injector:
//
//   - The sweep pool (sweep.Pool.Inject) asks it per job attempt for
//     transient errors, panics, and artificial scheduling delays.
//   - The checkpoint writer takes an FS (see NewFS) whose writes fail
//     on the injector's schedule: short writes that tear the frames a
//     flush appends.
//
// A nil *Injector is valid everywhere and injects nothing; callers pay
// one nil check on the disabled path.
package fault

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// ErrInjected marks every error produced by the injector, so tests and
// retry logic can tell deliberate faults from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Decision sites. Mixing a distinct site constant into the hash keeps
// the per-site fault streams independent: a job that draws a delay does
// not thereby change whether it draws a transient error.
const (
	siteTransient uint64 = 0xA11CE
	sitePanic     uint64 = 0xB0B0
	siteDelay     uint64 = 0xDE1A4
	siteDelayLen  uint64 = 0xDE1A5
	siteWrite     uint64 = 0x3317E
	siteConnDrop  uint64 = 0xD40BB
	siteConnShort uint64 = 0x54027
	siteConnSLen  uint64 = 0x54028
	siteConnDelay uint64 = 0xCDE1A
	siteConnDLen  uint64 = 0xCDE1B
)

// Injector draws deterministic fault decisions from a seed. The rate
// fields are probabilities in [0, 1]; zero disables that fault class.
// The struct is immutable after construction and safe for concurrent
// use (the FS wrapper adds its own operation counter).
type Injector struct {
	seed uint64
	// Transient is the per-attempt probability that a job fails with a
	// retryable (sweep.Transient-wrapped) error before running.
	Transient float64
	// Panic is the per-attempt probability that a job panics — a fatal
	// failure exercising the *sweep.PanicError path.
	Panic float64
	// Delay is the per-attempt probability of an artificial scheduling
	// delay (a bounded burst of runtime.Gosched yields): a straggler
	// model that perturbs completion order without touching results.
	Delay float64
	// DelayMax bounds the yield burst length (0 selects 64).
	DelayMax int
	// ShortWrite is the per-operation probability that a checkpoint
	// file write stops short and errors, tearing the frames being
	// flushed.
	ShortWrite float64
	// ConnDrop is the per-operation probability that a wrapped network
	// connection (see Wrap) breaks: the op errors and the connection is
	// closed, so every later op fails too — a shard death or partition
	// as the dispatcher observes it.
	ConnDrop float64
	// ConnShort is the per-read probability that a wrapped connection
	// returns fewer bytes than asked for. The bytes delivered are
	// correct — short reads are legal for net.Conn — so this exercises
	// reassembly (io.ReadFull) rather than corrupting the stream.
	ConnShort float64
	// ConnDelay is the per-operation probability of an artificial
	// scheduling delay on a wrapped connection (a bounded Gosched
	// burst): a slow-link model that perturbs timing, not data.
	ConnDelay float64
}

// New returns an injector with the given seed and all rates zero.
func New(seed uint64) *Injector { return &Injector{seed: seed} }

// Seed reports the injector's seed.
func (in *Injector) Seed() uint64 { return in.seed }

// splitmix64 is the standard SplitMix64 finalizer: a cheap, high-quality
// bijective mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Mix folds four words into one hash. Fixed arity keeps the call
// allocation-free on hot paths (a variadic slice could escape).
func Mix(a, b, c, d uint64) uint64 {
	h := splitmix64(a)
	h = splitmix64(h ^ b)
	h = splitmix64(h ^ c)
	return splitmix64(h ^ d)
}

// roll maps (seed, site, a, b) to a uniform draw in [0, 1).
func (in *Injector) roll(site, a, b uint64) float64 {
	return float64(Mix(in.seed, site, a, b)>>11) / float64(uint64(1)<<53)
}

// JobTransient reports whether the given job attempt draws an injected
// transient failure.
func (in *Injector) JobTransient(index, attempt int) bool {
	return in != nil && in.Transient > 0 &&
		in.roll(siteTransient, uint64(index), uint64(attempt)) < in.Transient
}

// JobPanic reports whether the given job attempt draws an injected
// panic.
func (in *Injector) JobPanic(index, attempt int) bool {
	return in != nil && in.Panic > 0 &&
		in.roll(sitePanic, uint64(index), uint64(attempt)) < in.Panic
}

// JobDelay performs the attempt's artificial delay, if it draws one: a
// deterministic-length burst of scheduler yields. It never touches the
// wall clock, so delays reorder completions without slowing tests down.
func (in *Injector) JobDelay(index, attempt int) {
	if in == nil || in.Delay <= 0 ||
		in.roll(siteDelay, uint64(index), uint64(attempt)) >= in.Delay {
		return
	}
	max := in.DelayMax
	if max <= 0 {
		max = 64
	}
	n := 1 + int(Mix(in.seed, siteDelayLen, uint64(index), uint64(attempt))%uint64(max))
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// writeFault reports whether checkpoint write operation op draws a
// short write.
func (in *Injector) writeFault(op uint64) bool {
	return in != nil && in.ShortWrite > 0 && in.roll(siteWrite, op, 0) < in.ShortWrite
}

// connDrop reports whether connection operation op draws a drop.
func (in *Injector) connDrop(op uint64) bool {
	return in != nil && in.ConnDrop > 0 && in.roll(siteConnDrop, op, 0) < in.ConnDrop
}

// connShort reports whether connection read op draws a short read, and
// if so how many of the n requested bytes to deliver (at least one —
// a zero-byte read would look like EOF to bufio-style callers).
func (in *Injector) connShort(op uint64, n int) (int, bool) {
	if in == nil || in.ConnShort <= 0 || n <= 1 ||
		in.roll(siteConnShort, op, 0) >= in.ConnShort {
		return n, false
	}
	return 1 + int(Mix(in.seed, siteConnSLen, op, 0)%uint64(n-1)), true
}

// connDelay performs connection operation op's artificial delay, if it
// draws one: a deterministic-length burst of scheduler yields.
func (in *Injector) connDelay(op uint64) {
	if in == nil || in.ConnDelay <= 0 || in.roll(siteConnDelay, op, 0) >= in.ConnDelay {
		return
	}
	max := in.DelayMax
	if max <= 0 {
		max = 64
	}
	n := 1 + int(Mix(in.seed, siteConnDLen, op, 0)%uint64(max))
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// ParseSpec builds an injector from a compact comma-separated spec, the
// form the CLIs accept:
//
//	seed=7,transient=0.2,panic=0.01,delay=0.5,delaymax=32,shortwrite=0.05
//
// Every key is optional; seed defaults to 1 and omitted rates to 0. An
// empty spec is an error — disabling injection is done by not passing
// one at all.
func ParseSpec(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fault: empty spec")
	}
	in := New(1)
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok || v == "" {
			return nil, fmt.Errorf("fault: bad spec field %q (want key=value)", field)
		}
		rate := func() (float64, error) {
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r < 0 || r > 1 {
				return 0, fmt.Errorf("fault: %s=%q is not a probability in [0,1]", k, v)
			}
			return r, nil
		}
		var err error
		switch k {
		case "seed":
			in.seed, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
		case "transient":
			in.Transient, err = rate()
		case "panic":
			in.Panic, err = rate()
		case "delay":
			in.Delay, err = rate()
		case "delaymax":
			in.DelayMax, err = strconv.Atoi(v)
			if err != nil || in.DelayMax < 1 {
				return nil, fmt.Errorf("fault: bad delaymax %q (want a positive count)", v)
			}
		case "shortwrite":
			in.ShortWrite, err = rate()
		case "conndrop":
			in.ConnDrop, err = rate()
		case "connshort":
			in.ConnShort, err = rate()
		case "conndelay":
			in.ConnDelay, err = rate()
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q (have seed, transient, panic, delay, delaymax, shortwrite, conndrop, connshort, conndelay)", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}
