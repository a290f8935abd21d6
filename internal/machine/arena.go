package machine

import "slices"

// Arena is a reusable pool of built machines, one per configuration.
// Sweep workers construct their simulated machine once and replay
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
	machines []*Machine
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

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
// applied, so equivalent zero-value and explicit configs share one
// machine), reporting whether it already ran (and therefore needs a
// Reset before reuse); a miss builds it fresh. An arena holds a handful
// of configurations, so a linear scan finds one without building a key.
func (a *Arena) machine(cfg Config) (*Machine, bool) {
	for _, m := range a.machines {
		if m.cfg.same(cfg) {
			return m, true
		}
	}
	m := New(cfg)
	a.machines = append(a.machines, m)
	return m, false
}

// same reports whether c and o describe the same machine: every field
// equal, the observer lists element by element and the active
// predictors by value.
func (c Config) same(o Config) bool {
	return c.Nodes == o.Nodes && c.Flight == o.Flight && c.MaxEvents == o.MaxEvents &&
		c.CacheCapacity == o.CacheCapacity && c.EnableFR == o.EnableFR && c.EnableSWI == o.EnableSWI &&
		c.EnableSpecUpgrade == o.EnableSpecUpgrade && c.DisableCoherenceCheck == o.DisableCoherenceCheck &&
		slices.Equal(c.Observers, o.Observers) &&
		(c.Active == nil) == (o.Active == nil) && (c.Active == nil || *c.Active == *o.Active)
}
