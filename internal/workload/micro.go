package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// MicroParams configures the micro-pattern generators used by examples
// and tests.
type MicroParams struct {
	Nodes      int
	Blocks     int
	Iterations int
	// Readers is the consumer count per block (ProducerConsumer).
	Readers int
	// ChainLen is the visit chain length (MigratoryPattern).
	ChainLen int
	Seed     int64
}

func (p MicroParams) withDefaults() MicroParams {
	if p.Nodes == 0 {
		p.Nodes = 4
	}
	if p.Blocks == 0 {
		p.Blocks = 8
	}
	if p.Iterations == 0 {
		p.Iterations = 6
	}
	if p.Readers == 0 {
		p.Readers = 2
	}
	if p.ChainLen == 0 {
		p.ChainLen = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// ProducerConsumer builds the canonical sharing pattern of the paper's
// running example (Figures 2-4): node 0 writes each block once per
// iteration; a fixed set of consumers reads it, staggered.
func ProducerConsumer(p MicroParams) []machine.Program {
	p = p.withDefaults()
	b := newBuild(Params{Nodes: p.Nodes, Seed: p.Seed, Scale: 1, Iterations: p.Iterations})
	producer := mem.NodeID(0)
	addrs := make([]mem.BlockAddr, p.Blocks)
	consumers := make([][]mem.NodeID, p.Blocks)
	for i := range addrs {
		addrs[i] = b.alloc(producer)
		consumers[i] = b.pickOthers(p.Readers, producer)
	}
	for it := 0; it < p.Iterations; it++ {
		for _, a := range addrs {
			b.compute(producer, b.jitter(40, 20))
			b.write(producer, a)
		}
		b.barrierAll()
		reads := b.readLists()
		for i, a := range addrs {
			for _, c := range consumers[i] {
				reads[c] = append(reads[c], a)
			}
		}
		for n := 0; n < p.Nodes; n++ {
			c := mem.NodeID(n)
			b.compute(c, b.jitter(100, 900))
			for _, a := range reads[c] {
				b.read(c, a)
				b.compute(c, b.jitter(50, 30))
			}
		}
		b.barrierAll()
	}
	return b.finish()
}

// MigratoryPattern builds pure migratory sharing: each block is visited by
// a fixed chain of processors, each performing a read followed by a write.
func MigratoryPattern(p MicroParams) []machine.Program {
	p = p.withDefaults()
	b := newBuild(Params{Nodes: p.Nodes, Seed: p.Seed, Scale: 1, Iterations: p.Iterations})
	type chainBlock struct {
		addr  mem.BlockAddr
		chain []mem.NodeID
	}
	blocks := make([]chainBlock, p.Blocks)
	for i := range blocks {
		var chain []mem.NodeID
		for _, n := range b.perm(p.Nodes)[:p.ChainLen] {
			chain = append(chain, mem.NodeID(n))
		}
		blocks[i] = chainBlock{addr: b.allocRR(i), chain: chain}
	}
	for it := 0; it < p.Iterations; it++ {
		for _, blk := range blocks {
			for k, proc := range blk.chain {
				b.compute(proc, b.jitter(200+k*900, 200))
				b.read(proc, blk.addr)
				b.write(proc, blk.addr)
			}
		}
		b.barrierAll()
	}
	return b.finish()
}

// StencilPattern builds near-neighbour sharing: each node owns a strip of
// blocks; the right neighbour reads the boundary each iteration.
func StencilPattern(p MicroParams) []machine.Program {
	p = p.withDefaults()
	b := newBuild(Params{Nodes: p.Nodes, Seed: p.Seed, Scale: 1, Iterations: p.Iterations})
	type bBlock struct {
		addr mem.BlockAddr
		prod mem.NodeID
		cons mem.NodeID
	}
	blocks := make([]bBlock, 0, p.Nodes*p.Blocks)
	idx := 0
	for n := 0; n < p.Nodes; n++ {
		for i := 0; i < p.Blocks; i++ {
			blocks = append(blocks, bBlock{
				addr: b.allocRR(idx),
				prod: mem.NodeID(n),
				cons: mem.NodeID((n + 1) % p.Nodes),
			})
			idx++
		}
	}
	for it := 0; it < p.Iterations; it++ {
		for _, blk := range blocks {
			b.compute(blk.prod, b.jitter(50, 30))
			b.read(blk.prod, blk.addr)
			b.write(blk.prod, blk.addr)
		}
		b.barrierAll()
		for _, blk := range blocks {
			b.compute(blk.cons, b.jitter(60, 40))
			b.read(blk.cons, blk.addr)
		}
		b.barrierAll()
	}
	return b.finish()
}
