package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// Tomcatv reproduces the SPEC mesh-generation stencil's sharing pattern
// (§7.1, §7.4): processors own contiguous row sets and share only at the
// set boundaries, with a single consumer (the next processor) per block.
// Every iteration the producer first reads then writes each boundary
// block; a correction phase then rewrites half of the boundary blocks
// before the consumers read. Blocks are homed round-robin (page placement
// oblivious to the writer), so the producer's accesses appear as request
// messages at the home — giving the paper's two-reader (producer +
// consumer) sequences, its ~46% FR coverage, and SWI succeeding on exactly
// the uncorrected half of the writes.
func Tomcatv(p Params) []machine.Program {
	p = p.withDefaults(16)
	b := newBuild(p)
	boundaryPerNode := p.scaled(10)
	stagger := make([]int, b.nodes)
	for n := range stagger {
		stagger[n] = 100 + b.rng.Intn(1200)
	}

	type bBlock struct {
		addr      mem.BlockAddr
		prod      mem.NodeID
		cons      mem.NodeID
		corrected bool
	}
	var blocks []bBlock
	idx := 0
	for n := 0; n < b.nodes; n++ {
		for i := 0; i < boundaryPerNode; i++ {
			blocks = append(blocks, bBlock{
				addr:      b.allocRR(idx),
				prod:      mem.NodeID(n),
				cons:      mem.NodeID((n + 1) % b.nodes),
				corrected: i%2 == 0,
			})
			idx++
		}
	}

	for it := 0; it < p.Iterations; it++ {
		// Interior rows: local computation dominates tomcatv's iteration.
		for n := 0; n < b.nodes; n++ {
			b.compute(mem.NodeID(n), b.jitter(9000, 800))
		}
		// Main phase: read-then-write each boundary block.
		for _, blk := range blocks {
			b.compute(blk.prod, b.jitter(60, 40))
			b.read(blk.prod, blk.addr)
			b.write(blk.prod, blk.addr)
		}
		// Correction phase: producers write again to half of the blocks.
		for _, blk := range blocks {
			if blk.corrected {
				b.compute(blk.prod, b.jitter(40, 20))
				b.write(blk.prod, blk.addr)
			}
		}
		b.barrierAll()
		// Consumers read the neighbour's boundary, staggered.
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
	}
	return b.finish()
}
