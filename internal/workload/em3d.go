package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// EM3D reproduces the Split-C electromagnetic kernel's sharing pattern
// (paper §7.1, §7.4): a static bipartite graph of E and H nodes where each
// producer writes its own blocks exactly once per iteration and a small,
// fixed set of remote consumers (mean read degree ~2.4, matching the
// paper's "small read-sharing degree" and its 58% FR coverage) reads them.
//
// The pattern is maximally SWI-friendly: the producer never touches a
// block again until the next iteration, so a write to the next block
// reliably signals completion of the previous one — the paper measures 98%
// of writes speculatively invalidated and 95% of reads triggered.
func EM3D(p Params) []machine.Program {
	p = p.withDefaults(16)
	b := newBuild(p)
	blocksPerNode := p.scaled(12)
	// Per-node phase offsets are fixed for the whole run: em3d's schedule
	// is static, so consumers arrive in the same order every iteration
	// (the paper finds em3d highly predictable even for MSP).
	stagger := make([]int, b.nodes)
	for n := range stagger {
		stagger[n] = 100 + b.rng.Intn(1400)
	}

	type sharedBlock struct {
		addr      mem.BlockAddr
		owner     mem.NodeID
		consumers []mem.NodeID
	}
	mkPhase := func() []sharedBlock {
		var out []sharedBlock
		for n := 0; n < b.nodes; n++ {
			owner := mem.NodeID(n)
			for i := 0; i < blocksPerNode; i++ {
				deg := 2
				if b.rng.Float64() < 0.4 {
					deg = 3
				}
				out = append(out, sharedBlock{
					addr:      b.alloc(owner),
					owner:     owner,
					consumers: b.pickOthers(deg, owner),
				})
			}
		}
		return out
	}
	eBlocks := mkPhase() // E values computed from H neighbours
	hBlocks := mkPhase() // H values computed from E neighbours

	phase := func(blocks []sharedBlock) {
		// Local (non-shared) graph nodes: pure computation.
		for n := 0; n < b.nodes; n++ {
			b.compute(mem.NodeID(n), b.jitter(20000, 1500))
		}
		// Producers update their owned values, one write per block, with
		// the compute of the stencil kernel between writes.
		for _, blk := range blocks {
			b.compute(blk.owner, b.jitter(40, 30))
			b.write(blk.owner, blk.addr)
		}
		b.barrierAll()
		// Consumers read their remote dependencies in a fixed (static
		// graph) order, staggered by their own local work.
		reads := b.readLists()
		for _, blk := range blocks {
			for _, c := range blk.consumers {
				reads[c] = append(reads[c], blk.addr)
			}
		}
		for n := 0; n < b.nodes; n++ {
			c := mem.NodeID(n)
			b.compute(c, b.jitter(stagger[c], 40))
			for _, a := range reads[c] {
				b.read(c, a)
				b.compute(c, b.jitter(60, 20))
			}
		}
		b.barrierAll()
	}

	for it := 0; it < p.Iterations; it++ {
		phase(eBlocks)
		phase(hBlocks)
	}
	return b.finish()
}
