package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// Unstructured reproduces the CFD mesh kernel's sharing pattern (§7.1,
// §7.4) under the paper's cyclic (communication-intensive) partitioning:
//
//   - a producer/consumer phase with very wide read sharing — each block
//     written once by its owner and read by ~12 of the 16 processors, in
//     an order that changes every iteration. The re-ordering wrecks MSP at
//     history depth one (the paper measures under 65%) while VMSP's
//     vector encoding is immune;
//   - a sum-reduction phase with migratory sharing where processors whose
//     contribution is zero skip every other visit, so the participant
//     chain alternates between two overlapping sets. The predictors
//     mispredict at the alternation points. Measured over seeds 1-5 at
//     16 nodes and scale 1.0, VMSP is 90.7-91.9% accurate at depth one
//     and 93.3-94.9% at depth two; only depth four reaches 98.5-99.1%
//     (Figure 8).
func Unstructured(p Params) []machine.Program {
	p = p.withDefaults(12)
	b := newBuild(p)
	pcPerNode := p.scaled(2)
	chains := p.scaled(4 * p.Nodes)
	readDegree := 12
	if readDegree > p.Nodes-1 {
		readDegree = p.Nodes - 1
	}
	// Each reader has a nominal traversal order; load imbalance re-orders
	// roughly half of its visits each iteration.
	stagger := make([]int, b.nodes)
	for n := range stagger {
		stagger[n] = 50 + b.rng.Intn(600)
	}

	// Wide producer/consumer mesh blocks, homed at their owner.
	type pcBlock struct {
		addr    mem.BlockAddr
		owner   mem.NodeID
		readers []mem.NodeID
	}
	var pcBlocks []pcBlock
	for n := 0; n < b.nodes; n++ {
		owner := mem.NodeID(n)
		for i := 0; i < pcPerNode; i++ {
			pcBlocks = append(pcBlocks, pcBlock{
				addr:    b.alloc(owner),
				owner:   owner,
				readers: b.pickOthers(readDegree, owner),
			})
		}
	}

	// Reduction blocks with alternating migratory chains: a common head
	// processor followed by an even-iteration tail or an odd-iteration
	// tail. The shared head makes depth-one prediction ambiguous.
	type migBlock struct {
		addr mem.BlockAddr
		head mem.NodeID
		even [2]mem.NodeID
		odd  [2]mem.NodeID
	}
	var migBlocks []migBlock
	for c := 0; c < chains; c++ {
		procs := b.perm(b.nodes)
		head := mem.NodeID(procs[0])
		even := [2]mem.NodeID{mem.NodeID(procs[1]), mem.NodeID(procs[2])}
		odd := [2]mem.NodeID{mem.NodeID(procs[3]), mem.NodeID(procs[4])}
		migBlocks = append(migBlocks, migBlock{b.allocRR(c), head, even, odd})
	}
	// visit is the k-th visit of a reduction chain to its block.
	visit := func(k int, proc mem.NodeID, addr mem.BlockAddr) {
		b.compute(proc, b.jitter(150+k*900, 250))
		b.read(proc, addr)
		b.write(proc, addr)
	}

	for it := 0; it < p.Iterations; it++ {
		// Producer phase: one write per block per iteration (SWI-friendly;
		// the paper measures 90% of writes speculatively invalidated).
		for _, blk := range pcBlocks {
			b.compute(blk.owner, b.jitter(40, 30))
			b.write(blk.owner, blk.addr)
		}
		b.barrierAll()
		// Wide read sharing with per-iteration re-ordering: each reader
		// visits its blocks in a fresh random order with little compute —
		// unstructured is communication-bound.
		reads := b.readLists()
		for _, blk := range pcBlocks {
			for _, r := range blk.readers {
				reads[r] = append(reads[r], blk.addr)
			}
		}
		for n := 0; n < b.nodes; n++ {
			r := mem.NodeID(n)
			order := b.scratch(len(reads[r]))
			for i := range order {
				order[i] = i
			}
			if b.rng.Float64() < 0.5 {
				b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			b.compute(r, b.jitter(stagger[r], 100))
			for _, j := range order {
				b.read(r, reads[r][j])
				b.compute(r, b.jitter(25, 20))
			}
		}
		b.barrierAll()
		// Reduction: head visits first, then the parity-selected tail.
		for _, blk := range migBlocks {
			tail := blk.even
			if it%2 == 1 {
				tail = blk.odd
			}
			visit(0, blk.head, blk.addr)
			for k, proc := range tail {
				visit(k+1, proc, blk.addr)
			}
		}
		b.barrierAll()
	}
	return b.finish()
}
