package workload

import (
	"sync"

	"specdsm/internal/machine"
)

// Generation cache: workload generation is deterministic in (app, Params),
// and study sweeps instantiate the same workload many times — the
// characterization and the speculation study's Base, FR and SWI runs
// each need every application, and each benchmark iteration
// regenerates the whole matrix. Programs
// returns one shared, immutable program set per distinct (app, Params)
// instead.
//
// Immutability contract: cached programs are shared across goroutines and
// machine runs, so neither callers nor the machine layer may ever mutate
// a returned Program (the simulator only reads them). A generation's
// programs share one backing array that no builder keeps: the recycled
// builder copies them out before it is reused, and each program is
// capped at its length, so an append reallocates instead of writing
// into the next program.

// genKey identifies one cached generation. Params is a comparable struct
// of scalars, so the raw value (pre-defaulting) is the key; two Params
// that normalize to the same defaults but are spelled differently simply
// occupy two entries.
type genKey struct {
	name string
	p    Params
}

var genCache = struct {
	sync.Mutex
	m map[genKey][]machine.Program
}{m: make(map[genKey][]machine.Program)}

// genCacheCap bounds the cache. Study matrices touch a few dozen
// (app, params) cells; past the cap the whole cache is dropped and
// rebuilt on demand, keeping worst-case growth bounded without LRU
// bookkeeping (regeneration is deterministic, so correctness is
// unaffected).
const genCacheCap = 64

// Programs returns the generated programs for app at p, serving repeated
// identical requests from a process-wide concurrency-safe cache. The
// returned programs are shared: callers must treat them as immutable.
//
// Generation runs outside the lock so concurrent sweep workers warming
// different cells never serialize behind each other; if two workers race
// on the same key, both generate (deterministically identical) programs
// and the first insert wins, so every caller observes one shared
// instance per key.
func Programs(app App, p Params) []machine.Program {
	key := genKey{name: app.Name, p: p}
	genCache.Lock()
	progs, ok := genCache.m[key]
	genCache.Unlock()
	if ok {
		return progs
	}
	progs = app.Generate(p)
	genCache.Lock()
	defer genCache.Unlock()
	if won, ok := genCache.m[key]; ok {
		return won
	}
	if len(genCache.m) >= genCacheCap {
		clear(genCache.m)
	}
	genCache.m[key] = progs
	return progs
}
