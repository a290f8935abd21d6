package machine

import (
	"strconv"
	"strings"
)

// Arena is a reusable pool of built machines, keyed by configuration
// shape. Sweep workers construct their simulated machine once and replay
// every subsequent job through it: Run fetches (or builds, on first use
// of a configuration) the machine for cfg, re-arms it with Reset, and
// executes the programs. Because Reset restores a machine to its
// just-constructed state while retaining all table/queue/pool storage,
// a reused machine produces results identical to a freshly built one —
// the property the arena reset-equivalence tests pin — while skipping
// per-run construction entirely.
//
// An arena is NOT safe for concurrent use; give each sweep worker its
// own (sweep.Run's worker-local state is the intended carrier).
type Arena struct {
	machines map[string]*Machine
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{machines: make(map[string]*Machine)}
}

// Run executes one program per node on the arena's machine for cfg,
// building the machine on first use of the configuration and resetting
// it on every reuse. Results are identical to New(cfg).Run(programs).
func (a *Arena) Run(cfg Config, programs []Program) (*Result, error) {
	m, reused := a.machine(cfg.withDefaults())
	if reused {
		m.Reset()
	}
	return m.Run(programs)
}

// Machines reports how many distinct machine configurations the arena
// currently holds.
func (a *Arena) Machines() int { return len(a.machines) }

// machine fetches the machine for cfg (which must already have defaults
// applied), reporting whether it already ran (and therefore needs a
// Reset before reuse); a miss builds it fresh.
func (a *Arena) machine(cfg Config) (*Machine, bool) {
	key := cfg.arenaKey()
	if m, ok := a.machines[key]; ok {
		return m, true
	}
	m := New(cfg)
	a.machines[key] = m
	return m, false
}

// arenaKey serializes every machine-identity Config field into a
// comparable string (Config itself holds a slice and a pointer, so it
// cannot be a map key directly). Call on a config that already has
// defaults applied, so equivalent zero-value and explicit configs share
// one machine.
func (c Config) arenaKey() string {
	var b strings.Builder
	b.Grow(96)
	w := func(v uint64) {
		b.WriteString(strconv.FormatUint(v, 10))
		b.WriteByte(',')
	}
	w(uint64(c.Nodes))
	w(uint64(c.Flight))
	w(c.MaxEvents)
	w(uint64(c.CacheCapacity))
	var flags uint64
	if c.EnableFR {
		flags |= 1
	}
	if c.EnableSWI {
		flags |= 2
	}
	if c.EnableSpecUpgrade {
		flags |= 4
	}
	if c.DisableCoherenceCheck {
		flags |= 8
	}
	w(flags)
	spec := func(s PredictorSpec) {
		w(uint64(s.Kind))
		w(uint64(s.Depth))
		w(uint64(s.Confidence))
	}
	for _, s := range c.Observers {
		b.WriteByte('o')
		spec(s)
	}
	if c.Active != nil {
		b.WriteByte('a')
		spec(*c.Active)
	}
	return b.String()
}
