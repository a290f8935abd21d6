package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// Moldyn reproduces the CHARMM-like molecular dynamics sharing pattern
// (§7.1, §7.4): a producer/consumer phase over particle coordinates with a
// small read degree — where the producer re-reads its blocks shortly after
// writing them, defeating SWI — plus a static migratory phase accumulating
// partial forces, where fixed processor chains perform read+upgrade pairs
// and SWI succeeds (the paper measures 68% of writes speculatively
// invalidated, all from the migratory phase).
func Moldyn(p Params) []machine.Program {
	p = p.withDefaults(14)
	b := newBuild(p)
	pcPerNode := p.scaled(10)
	chains := p.scaled(3 * p.Nodes)
	const chainLen = 3
	// Static interaction lists: consumer arrival order is stable across
	// iterations (the paper finds moldyn's producer/consumer phase highly
	// predictable even with MSP).
	stagger := make([]int, b.nodes)
	for n := range stagger {
		stagger[n] = 100 + b.rng.Intn(1200)
	}

	// Producer/consumer coordinate blocks, homed at their producer.
	type pcBlock struct {
		addr      mem.BlockAddr
		owner     mem.NodeID
		consumers []mem.NodeID
	}
	var pcBlocks []pcBlock
	for n := 0; n < b.nodes; n++ {
		owner := mem.NodeID(n)
		for i := 0; i < pcPerNode; i++ {
			pcBlocks = append(pcBlocks, pcBlock{
				addr:      b.alloc(owner),
				owner:     owner,
				consumers: b.pickOthers(3, owner),
			})
		}
	}

	// Migratory force blocks, homed round-robin, visited by a fixed chain
	// of processors every iteration (static interaction lists).
	type migBlock struct {
		addr  mem.BlockAddr
		chain []mem.NodeID
	}
	var migBlocks []migBlock
	for c := 0; c < chains; c++ {
		var chain []mem.NodeID
		for _, n := range b.perm(b.nodes)[:chainLen] {
			chain = append(chain, mem.NodeID(n))
		}
		migBlocks = append(migBlocks, migBlock{addr: b.allocRR(c), chain: chain})
	}

	for it := 0; it < p.Iterations; it++ {
		// Coordinate update: each producer writes all its blocks, then
		// immediately re-reads them for the local force computation. The
		// re-read lands after SWI's recall of the block, which is exactly
		// the premature-invalidation behaviour the paper reports for
		// moldyn's producer/consumer phase.
		for _, blk := range pcBlocks {
			b.compute(blk.owner, b.jitter(30, 20))
			b.write(blk.owner, blk.addr)
		}
		for _, blk := range pcBlocks {
			b.read(blk.owner, blk.addr)
			b.compute(blk.owner, b.jitter(20, 15))
		}
		b.barrierAll()
		// Consumers read remote coordinates, staggered.
		reads := b.readLists()
		for _, blk := range pcBlocks {
			for _, c := range blk.consumers {
				reads[c] = append(reads[c], blk.addr)
			}
		}
		for n := 0; n < b.nodes; n++ {
			c := mem.NodeID(n)
			b.compute(c, b.jitter(stagger[c], 30))
			for _, a := range reads[c] {
				b.read(c, a)
				b.compute(c, b.jitter(50, 15))
			}
		}
		b.barrierAll()
		// Migratory force accumulation: each chain member reads the
		// partial sum and writes its contribution; visits are staggered so
		// the block migrates down the chain.
		for _, blk := range migBlocks {
			for k, proc := range blk.chain {
				b.compute(proc, b.jitter(200+k*900, 150))
				b.read(proc, blk.addr)
				b.write(proc, blk.addr)
			}
		}
		b.barrierAll()
	}
	return b.finish()
}
