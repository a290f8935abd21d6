package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// Barnes reproduces the SPLASH-2 N-body simulation's sharing pattern
// (§7.1, §7.4): processors traverse a shared octree whose structure is
// rebuilt every iteration. Each tree block has a stable writer (the owner
// of that region of space) but its reader set churns between iterations
// and the readers arrive in a different order every time (a processor's
// traversal workload changes with the octree). The result is the paper's
// worst case: low pattern reuse (low coverage), read re-ordering that
// hurts MSP but not VMSP, acknowledgement arrivals that are stable (so
// MSP does not beat Cosmos here), and a communication ratio low enough
// that speculation barely moves execution time (Figure 9).
func Barnes(p Params) []machine.Program {
	p = p.withDefaults(10)
	b := newBuild(p)
	treeBlocks := p.scaled(6 * p.Nodes)
	const readerChurn = 0.2

	type treeBlock struct {
		addr    mem.BlockAddr
		writer  mem.NodeID
		readers []mem.NodeID
	}
	blocks := make([]treeBlock, treeBlocks)
	for i := range blocks {
		writer := mem.NodeID(i % b.nodes)
		deg := 1 + b.rng.Intn(4)
		blocks[i] = treeBlock{
			addr:    b.allocRR(i),
			writer:  writer,
			readers: b.pickOthers(deg, writer),
		}
	}

	for it := 0; it < p.Iterations; it++ {
		// Tree rebuild: every block is rewritten by its owner; the reader
		// set churns, modeling bodies moving between octree cells. The
		// build inserts bodies in two passes, so each block is written
		// multiple times — which is why SWI's early-invalidation heuristic
		// fails on barnes (§7.4).
		for i := range blocks {
			if b.rng.Float64() < readerChurn {
				deg := 1 + b.rng.Intn(4)
				blocks[i].readers = b.pickOthers(deg, blocks[i].writer)
			}
			b.compute(blocks[i].writer, b.jitter(80, 60))
			b.write(blocks[i].writer, blocks[i].addr)
		}
		for i := range blocks {
			b.compute(blocks[i].writer, b.jitter(40, 30))
			b.write(blocks[i].writer, blocks[i].addr)
		}
		b.barrierAll()
		// Force computation: partial, re-ordered traversals. Each reader
		// visits its blocks in a fresh random order with heavy compute
		// between reads (barnes is computation-bound).
		reads := b.readLists()
		for _, blk := range blocks {
			for _, r := range blk.readers {
				reads[r] = append(reads[r], blk.addr)
			}
		}
		for n := 0; n < b.nodes; n++ {
			r := mem.NodeID(n)
			order := b.perm(len(reads[r]))
			b.compute(r, b.jitter(200, 2000))
			for _, j := range order {
				b.read(r, reads[r][j])
				b.compute(r, b.jitter(700, 500))
			}
		}
		b.barrierAll()
		// Per-iteration body updates: purely local heavy compute.
		for n := 0; n < b.nodes; n++ {
			b.compute(mem.NodeID(n), b.jitter(45000, 5000))
		}
		b.barrierAll()
	}
	return b.finish()
}
