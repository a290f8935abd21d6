package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// Ocean reproduces the SPLASH-2 ocean simulation's sharing pattern (§7.1,
// §7.4): near-neighbour stencil sharing with a single consumer per
// boundary block, a multi-sweep solver that writes each boundary block
// more than once per iteration (which defeats SWI — the paper measures
// only 4% of writes speculatively invalidated), and a lock-based global
// reduction whose entry order changes every iteration, costing VMSP its
// last fraction of a percent of accuracy.
func Ocean(p Params) []machine.Program {
	p = p.withDefaults(14)
	b := newBuild(p)
	boundaryPerNode := p.scaled(20)
	const reductionLock = 1
	stagger := make([]int, b.nodes)
	for n := range stagger {
		stagger[n] = 100 + b.rng.Intn(1100)
	}

	type bBlock struct {
		addr mem.BlockAddr
		prod mem.NodeID
		cons mem.NodeID
	}
	var blocks []bBlock
	idx := 0
	for n := 0; n < b.nodes; n++ {
		for i := 0; i < boundaryPerNode; i++ {
			blocks = append(blocks, bBlock{
				addr: b.allocRR(idx),
				prod: mem.NodeID(n),
				cons: mem.NodeID((n + 1) % b.nodes),
			})
			idx++
		}
	}
	// The global reduction scalar, homed at node 0.
	sum := b.alloc(0)

	for it := 0; it < p.Iterations; it++ {
		// Red/black sweeps: two passes over the boundary, each reading
		// and writing every block. The second sweep's writes re-acquire
		// blocks that SWI may have recalled, marking those patterns
		// premature.
		for sweep := 0; sweep < 2; sweep++ {
			// Interior grid points: local computation per sweep.
			for n := 0; n < b.nodes; n++ {
				b.compute(mem.NodeID(n), b.jitter(2500, 300))
			}
			for _, blk := range blocks {
				b.compute(blk.prod, b.jitter(50, 30))
				b.read(blk.prod, blk.addr)
				b.write(blk.prod, blk.addr)
			}
		}
		b.barrierAll()
		// Single consumer per block reads the neighbour boundary.
		reads := b.readLists()
		for _, blk := range blocks {
			reads[blk.cons] = append(reads[blk.cons], blk.addr)
		}
		for n := 0; n < b.nodes; n++ {
			c := mem.NodeID(n)
			b.compute(c, b.jitter(stagger[c], 30))
			for _, a := range reads[c] {
				b.read(c, a)
				b.compute(c, b.jitter(60, 20))
			}
		}
		b.barrierAll()
		// Lock-ordered reduction: the arrival order — and therefore the
		// read/upgrade order on the sum block — changes every iteration.
		for _, n := range b.perm(b.nodes) {
			proc := mem.NodeID(n)
			b.compute(proc, b.jitter(50, 900))
			b.lock(proc, reductionLock)
			b.read(proc, sum)
			b.write(proc, sum)
			b.unlock(proc, reductionLock)
		}
		b.barrierAll()
	}
	return b.finish()
}
