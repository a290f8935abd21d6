package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"specdsm/internal/machine"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// Params configures one workload instantiation.
type Params struct {
	// Nodes is the machine size (default 16, as in Table 1).
	Nodes int
	// Iterations is the outer iteration count.
	Iterations int
	// Scale multiplies the per-node data-set size (1.0 = the scaled
	// default; the paper-scale inputs of Table 2 are impractical under a
	// cycle-accurate simulator and are approximated by Scale >> 1).
	Scale float64
	// Seed drives all generator randomness.
	Seed int64
}

func (p Params) withDefaults(iters int) Params {
	if p.Nodes == 0 {
		p.Nodes = 16
	}
	if p.Iterations == 0 {
		p.Iterations = iters
	}
	if p.Scale == 0 {
		p.Scale = 1.0
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Generator builds one program per node.
type Generator func(Params) []machine.Program

// App describes one benchmark application.
type App struct {
	// Name is the lower-case benchmark name used throughout the paper.
	Name string
	// Description summarizes the sharing pattern being reproduced.
	Description string
	// PaperInput and PaperIterations echo Table 2 for reporting.
	PaperInput      string
	PaperIterations int
	// DefaultIterations is the scaled default for this reproduction.
	DefaultIterations int
	// Generate builds the programs.
	Generate Generator
}

// apps is the immutable application registry; ByName iterates it
// directly so per-job lookups in streaming sweeps stay allocation-free.
var apps = []App{
	{
		Name:              "appbt",
		Description:       "gaussian elimination over subcubes; edge blocks alternate consumers across dimensions; pipeline producer/consumer",
		PaperInput:        "12x12x12 cubes",
		PaperIterations:   40,
		DefaultIterations: 9,
		Generate:          AppBT,
	},
	{
		Name:              "barnes",
		Description:       "octree force calculation; rapidly-changing read sharing with per-iteration reader re-ordering; low communication ratio",
		PaperInput:        "4K particles",
		PaperIterations:   21,
		DefaultIterations: 8,
		Generate:          Barnes,
	},
	{
		Name:              "em3d",
		Description:       "static bipartite-graph producer/consumer with small read degree; producer writes each block once per iteration",
		PaperInput:        "76800 nodes, 15% remote",
		PaperIterations:   50,
		DefaultIterations: 8,
		Generate:          EM3D,
	},
	{
		Name:              "moldyn",
		Description:       "molecular dynamics: producer/consumer phase (producer re-reads after writing) plus static migratory force accumulation",
		PaperInput:        "2048 particles",
		PaperIterations:   60,
		DefaultIterations: 8,
		Generate:          Moldyn,
	},
	{
		Name:              "ocean",
		Description:       "near-neighbour stencil with multi-sweep writes (defeats SWI) and a lock-ordered reduction whose entry order changes per iteration",
		PaperInput:        "130x130 array",
		PaperIterations:   12,
		DefaultIterations: 8,
		Generate:          Ocean,
	},
	{
		Name:              "tomcatv",
		Description:       "row-partitioned stencil; producer reads-then-writes its boundary, correction phase rewrites half the boundary blocks",
		PaperInput:        "128x128 array",
		PaperIterations:   50,
		DefaultIterations: 8,
		Generate:          Tomcatv,
	},
	{
		Name:              "unstructured",
		Description:       "CFD mesh with wide read sharing (~12 readers/write, re-ordered per iteration) and a reduction with alternating migratory participants",
		PaperInput:        "mesh.2K",
		PaperIterations:   50,
		DefaultIterations: 8,
		Generate:          Unstructured,
	},
}

// Apps returns the seven applications in the paper's (alphabetical)
// order. The returned slice is a fresh copy the caller may reorder.
func Apps() []App {
	out := make([]App, len(apps))
	copy(out, apps)
	return out
}

// ByName looks up an application without allocating.
func ByName(name string) (App, bool) {
	for _, a := range apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Names returns the application names in order.
func Names() []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	sort.Strings(out)
	return out
}

// build accumulates per-node programs. Builders are recycled through a
// free list: a generation takes one, appends into its per-node buffers,
// and finish copies the programs out and returns the builder, so a warm
// generation allocates little beyond the programs it returns.
type build struct {
	nodes int
	progs []machine.Program
	rng   *rand.Rand
	// next per-home block index for address allocation.
	next []uint64
	// reads holds per-node reader lists, reused by readLists.
	reads [][]mem.BlockAddr
}

// builders is the free list of idle builders. A plain mutex-guarded
// list rather than a sync.Pool, which may drop items at any time. It
// holds at most as many builders as generations ever ran at once, and
// hands them out oldest first, so every idle builder is reused in turn
// and meets finish's size check.
var builders struct {
	sync.Mutex
	free []*build
}

// keepRatio bounds what an idle builder may hold: finish drops a builder
// whose buffers exceed keepRatio times the programs it just produced, so
// buffers grown by a large generation are released once generations
// shrink. Append growth leaves at most 2x per node and the fleet-size
// apps differ by about 3x, so a sweep cycling the seven apps at one size
// keeps its builders.
const keepRatio = 8

func newBuild(p Params) *build {
	if p.Nodes < 2 || p.Nodes > mem.MaxNodes {
		panic(fmt.Sprintf("workload: invalid node count %d", p.Nodes))
	}
	var b *build
	builders.Lock()
	if len(builders.free) > 0 {
		b = builders.free[0]
		builders.free = slices.Delete(builders.free, 0, 1)
	}
	builders.Unlock()
	if b == nil {
		b = &build{rng: rand.New(rand.NewSource(p.Seed))}
	} else {
		// Seed restarts the source exactly as NewSource(p.Seed) would.
		b.rng.Seed(p.Seed)
	}
	b.nodes = p.Nodes
	b.progs = slices.Grow(b.progs[:0], p.Nodes)[:p.Nodes]
	for n := range b.progs {
		b.progs[n] = b.progs[n][:0]
	}
	b.next = slices.Grow(b.next[:0], p.Nodes)[:p.Nodes]
	clear(b.next)
	return b
}

// finish copies the programs into one exact-size backing array and
// returns the builder to the free list, unless it holds far more than
// these programs need. Each program is a subslice capped at its length,
// so an append to one can never reach its neighbour's ops.
func (b *build) finish() []machine.Program {
	total := 0
	for _, prog := range b.progs {
		total += len(prog)
	}
	flat := make([]machine.Op, total)
	out := make([]machine.Program, b.nodes)
	off := 0
	for n, prog := range b.progs {
		end := off + copy(flat[off:], prog)
		out[n] = flat[off:end:end]
		off = end
	}
	if b.held() <= keepRatio*total*int(unsafe.Sizeof(machine.Op{})) {
		builders.Lock()
		builders.free = append(builders.free, b)
		builders.Unlock()
	}
	return out
}

// held returns the bytes of buffer the builder keeps, including the
// slots past the current node count that a larger generation grew.
func (b *build) held() int {
	ops, addrs := 0, 0
	for _, prog := range b.progs[:cap(b.progs)] {
		ops += cap(prog)
	}
	for _, rs := range b.reads[:cap(b.reads)] {
		addrs += cap(rs)
	}
	return ops*int(unsafe.Sizeof(machine.Op{})) + addrs*int(unsafe.Sizeof(mem.BlockAddr(0)))
}

// readLists returns one empty reader list per node, reusing the
// builder's storage; the lists are valid until the next call.
func (b *build) readLists() [][]mem.BlockAddr {
	b.reads = slices.Grow(b.reads[:0], b.nodes)[:b.nodes]
	for n := range b.reads {
		b.reads[n] = b.reads[n][:0]
	}
	return b.reads
}

// alloc returns a fresh block homed at the given node.
func (b *build) alloc(home mem.NodeID) mem.BlockAddr {
	a := mem.MakeAddr(home, b.next[home])
	b.next[home]++
	return a
}

// allocRR returns a fresh block with round-robin home placement, modeling
// OS page placement that is oblivious to the writer (appbt, tomcatv,
// ocean, barnes use this: the producer's accesses then appear as request
// messages at a third-party home, as in the paper's DSM).
func (b *build) allocRR(i int) mem.BlockAddr {
	return b.alloc(mem.NodeID(i % b.nodes))
}

func (b *build) read(n mem.NodeID, addr mem.BlockAddr) {
	b.progs[n] = append(b.progs[n], machine.Read(addr))
}

func (b *build) write(n mem.NodeID, addr mem.BlockAddr) {
	b.progs[n] = append(b.progs[n], machine.Write(addr))
}

func (b *build) compute(n mem.NodeID, cycles sim.Cycle) {
	if cycles <= 0 {
		return
	}
	b.progs[n] = append(b.progs[n], machine.Compute(cycles))
}

func (b *build) lock(n mem.NodeID, id int) {
	b.progs[n] = append(b.progs[n], machine.Lock(id))
}

func (b *build) unlock(n mem.NodeID, id int) {
	b.progs[n] = append(b.progs[n], machine.Unlock(id))
}

// barrierAll appends a global barrier to every program.
func (b *build) barrierAll() {
	for n := range b.progs {
		b.progs[n] = append(b.progs[n], machine.Barrier())
	}
}

// jitter returns base plus a uniform random extra in [0, spread).
func (b *build) jitter(base, spread int) sim.Cycle {
	if spread <= 0 {
		return sim.Cycle(base)
	}
	return sim.Cycle(base + b.rng.Intn(spread))
}

// perm returns a random permutation of 0..n-1.
func (b *build) perm(n int) []int { return b.rng.Perm(n) }

// pickOthers selects k distinct nodes other than excl.
func (b *build) pickOthers(k int, excl mem.NodeID) []mem.NodeID {
	pool := make([]mem.NodeID, 0, b.nodes)
	for n := 0; n < b.nodes; n++ {
		if mem.NodeID(n) != excl {
			pool = append(pool, mem.NodeID(n))
		}
	}
	b.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if k > len(pool) {
		k = len(pool)
	}
	return pool[:k]
}
