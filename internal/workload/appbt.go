package workload

import (
	"specdsm/internal/machine"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// AppBT reproduces the NAS block-tridiagonal solver's sharing pattern
// (§7.1, §7.4): gaussian elimination over a cube of subcubes, proceeding
// along the x, y, and z dimensions in successive phases. Within a phase
// the processors form a pipeline along that dimension: each reads its
// predecessor's boundary blocks, computes, writes its own boundary, and
// re-reads its own values for the next step (which defeats SWI).
//
// Blocks on a subcube edge are consumed by a *different* successor in each
// dimension, so with history depth one every predictor confuses the
// alternating consumers. The paper observes that the invalidation
// acknowledgements let Cosmos slightly out-predict MSP here, because the
// previous consumer's ack identifies the current dimension; this
// generator does not reproduce that. Measured at 16 nodes and scale 1.0,
// depth one gives Cosmos 91.1%, MSP 92.2% and VMSP 91.7%; depth two
// lifts VMSP to 100% (Cosmos 94.7%, MSP 95.8%); depth four brings all
// three to 100% (Figure 8).
//
// The generator's only random draws are compute-time jitter, which
// leaves every block's message order unchanged: its predictor rows
// (Figures 7-8, Tables 3-5) are the same at every seed, and only its
// execution times (Figure 9) move with the seed, by about 0.1 points.
func AppBT(p Params) []machine.Program {
	p = p.withDefaults(18)
	b := newBuild(p)
	facePerNodePerDim := p.scaled(5)
	edgePerNode := p.scaled(2)

	// Arrange nodes in a gx × gy × gz grid.
	gx, gy, gz := gridDims(p.Nodes)
	coord := func(n int) (int, int, int) {
		return n % gx, (n / gx) % gy, n / (gx * gy)
	}
	succ := func(n, dim int) mem.NodeID {
		x, y, z := coord(n)
		switch dim {
		case 0:
			x = (x + 1) % gx
		case 1:
			y = (y + 1) % gy
		default:
			z = (z + 1) % gz
		}
		return mem.NodeID(x + y*gx + z*gx*gy)
	}
	pipePos := func(n, dim int) int {
		x, y, z := coord(n)
		switch dim {
		case 0:
			return x
		case 1:
			return y
		default:
			return z
		}
	}

	// Face blocks participate in one dimension; edge blocks in two, with
	// a different consumer in each.
	type faceBlock struct {
		addr mem.BlockAddr
		prod mem.NodeID
		dim  int
	}
	type edgeBlock struct {
		addr mem.BlockAddr
		prod mem.NodeID
		dims [2]int
	}
	var faces []faceBlock
	var edges []edgeBlock
	idx := 0
	for n := 0; n < b.nodes; n++ {
		prod := mem.NodeID(n)
		for dim := 0; dim < 3; dim++ {
			for i := 0; i < facePerNodePerDim; i++ {
				faces = append(faces, faceBlock{b.allocRR(idx), prod, dim})
				idx++
			}
		}
		for i := 0; i < edgePerNode; i++ {
			edges = append(edges, edgeBlock{b.allocRR(idx), prod, [2]int{0, 1}})
			idx++
		}
	}

	// Phases cycle x, y, z. p.Iterations counts phases.
	for it := 0; it < p.Iterations; it++ {
		dim := it % 3
		// Pipeline stagger along the active dimension.
		for n := 0; n < b.nodes; n++ {
			b.compute(mem.NodeID(n), sim.Cycle(pipePos(n, dim))*1800+b.jitter(50, 200))
		}
		// Consumers read the predecessor's boundary written last phase;
		// producers then write their boundary and re-read it.
		for _, f := range faces {
			if f.dim != dim {
				continue
			}
			c := succ(int(f.prod), dim)
			b.read(c, f.addr)
			b.compute(c, b.jitter(80, 60))
		}
		for _, e := range edges {
			if e.dims[0] != dim && e.dims[1] != dim {
				continue
			}
			c := succ(int(e.prod), dim)
			b.read(c, e.addr)
			b.compute(c, b.jitter(80, 60))
		}
		// The elimination is a read-modify-write of the producer's own
		// boundary: the read is a visible remote request (blocks are homed
		// round-robin) that First-Read speculation can cover, and — after
		// an SWI recall — it is exactly the "producer reads the block upon
		// writing to it" behaviour that makes SWI premature in appbt.
		for _, f := range faces {
			if f.dim != dim {
				continue
			}
			b.compute(f.prod, b.jitter(60, 40))
			b.read(f.prod, f.addr)
			b.write(f.prod, f.addr)
		}
		for _, e := range edges {
			if e.dims[0] != dim && e.dims[1] != dim {
				continue
			}
			b.compute(e.prod, b.jitter(60, 40))
			b.read(e.prod, e.addr)
			b.write(e.prod, e.addr)
		}
		// The elimination immediately consumes the freshly written values
		// for the next step; normally these re-reads hit in the cache, but
		// after an SWI recall they miss — the paper's "producer reads the
		// block upon writing to it" failure mode for SWI in appbt.
		for _, f := range faces {
			if f.dim != dim {
				continue
			}
			b.read(f.prod, f.addr)
		}
		for _, e := range edges {
			if e.dims[0] != dim && e.dims[1] != dim {
				continue
			}
			b.read(e.prod, e.addr)
		}
		// Interior subcube elimination: local computation.
		for n := 0; n < b.nodes; n++ {
			b.compute(mem.NodeID(n), b.jitter(26000, 2000))
		}
		b.barrierAll()
	}
	return b.finish()
}

// gridDims factors n into a 3-D grid, preferring wide x.
func gridDims(n int) (int, int, int) {
	switch {
	case n >= 16 && n%16 == 0:
		return 4, 2, 2 * (n / 16)
	case n%8 == 0:
		return 4, 2, n / 8
	case n%4 == 0:
		return 2, 2, n / 4
	case n%2 == 0:
		return 2, 1, n / 2
	default:
		return n, 1, 1
	}
}
