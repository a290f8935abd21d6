package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"specdsm/internal/machine"
	"specdsm/internal/mem"
)

// genCase is one generator at one size.
type genCase struct {
	name string
	gen  func() []machine.Program
}

// genCases lists every generator, the seven apps and the three micro
// patterns, at 16 nodes / scale 1.0 and at the fleet size.
func genCases() []genCase {
	sizes := []struct {
		tag string
		p   Params
		m   MicroParams
	}{
		{"n16", Params{Nodes: 16, Scale: 1.0, Seed: 1}, MicroParams{Nodes: 16, Seed: 1}},
		{"fleet", fleetParams, MicroParams{Nodes: 8, Iterations: 2, Seed: 1}},
	}
	var cs []genCase
	for _, s := range sizes {
		for _, app := range Apps() {
			gen, p := app.Generate, s.p
			cs = append(cs, genCase{s.tag + "/" + app.Name, func() []machine.Program { return gen(p) }})
		}
		for _, mc := range []struct {
			name string
			gen  func(MicroParams) []machine.Program
		}{
			{"producerconsumer", ProducerConsumer},
			{"migratory", MigratoryPattern},
			{"stencil", StencilPattern},
		} {
			gen, m := mc.gen, s.m
			cs = append(cs, genCase{s.tag + "/" + mc.name, func() []machine.Program { return gen(m) }})
		}
	}
	return cs
}

// opsDigest hashes every program's length and ops in node order.
func opsDigest(progs []machine.Program) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, prog := range progs {
		put(uint64(len(prog)))
		for _, op := range prog {
			put(uint64(op.Kind))
			put(uint64(op.Addr))
			put(uint64(op.Cycles))
			put(uint64(op.ID))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opsDigests pins every generator's output as generation produced it
// before builders were recycled.
var opsDigests = map[string]string{
	"n16/appbt":              "63703c83bb552ac22f0de13fd20f7e12852db72a379abe6f9f7d8f2d0769dccf",
	"n16/barnes":             "0a2476cfff0dd9b3d3c1b58247c1bc87dc4bbf6927c9ad437b7fe08cf8940cd0",
	"n16/em3d":               "0679cd600092e4ffb6b8008e712419489326f4ee2ccb670f58ca782ceadde0ed",
	"n16/moldyn":             "3c35161f0798718620aa2edd8e3f30d5c4448e177c45be19f90f98cac2cc1975",
	"n16/ocean":              "b02d04cb4bbaa547202ede9d38106532adfb2a62648050265c9c0cf5105da957",
	"n16/tomcatv":            "fb4282a764c5fe718e7052142352124b11dc819f0e94dda12bccb42c46ead258",
	"n16/unstructured":       "8573cf5f8e3b0754dbfbf40d198d1bd5cc503bd28aab46ba933fe453099c6402",
	"n16/producerconsumer":   "377649187a714737ebc0768884bf5bdc7cc5cf92b388e21b71b98c173896884d",
	"n16/migratory":          "63d3abcea7b1edb6d3953d5f6286a6f66dc05c9fa25e66d5bdc24c2d19132a7e",
	"n16/stencil":            "65af5a0e82e88628cd8b3f2fe5578584e93c4f68fda9de0b292da2242bacc363",
	"fleet/appbt":            "8aed8cd6d88b5d9c0ff5c4dca6f9ce9e27a5bc46d306db8371bef02069bf01a1",
	"fleet/barnes":           "aca36dbcb238e735c285b490af80fc6594cb4e133e7b9fe59185ca872708e38f",
	"fleet/em3d":             "cf56f599d874cbc18d916c1da0bf208be544a6d131d625742d32632e0b325539",
	"fleet/moldyn":           "4bb429a7b98d468692e2589c1e761d9f229c241498bc6aeb29cee069ab6d4fdc",
	"fleet/ocean":            "3572357c539d374f58d8905887083f8354982a83808d4e47e663aae77f57eb82",
	"fleet/tomcatv":          "c4dae921eb9531c850f4107fe8e6d3f294f01df3d061fde1a6eb8aff07ade6a4",
	"fleet/unstructured":     "83fbe4b3d0b3184e9126ec0f2fc201f776aea21f76ee157f40fd67021acb4532",
	"fleet/producerconsumer": "27ee34a5a29c1f84d9bbaa095a214833b822e0773faeab419b0ce69371f4c5a6",
	"fleet/migratory":        "d2731f923542fced75f52ad2f94428f4bee667973c5219e78fef8b3a0655a171",
	"fleet/stencil":          "347dcd8c62a860ce389e958d502c5889bc3c83034e9d825bef1a1bd7fd853e53",
}

// dropFreeBuilders empties the builder free list, so the next generation
// starts from a freshly allocated builder.
func dropFreeBuilders() {
	builders.Lock()
	builders.free = nil
	builders.Unlock()
}

// TestRecycledBuilderMatchesCold checks that builder reuse leaks no
// state: after a larger generation has dirtied the recycled builder's
// buffers, address counters and RNG, every generator returns the same
// programs as on a fresh builder, each capped at its length, with the
// pinned ops digest.
func TestRecycledBuilderMatchesCold(t *testing.T) {
	for _, c := range genCases() {
		dropFreeBuilders()
		cold := c.gen()
		Unstructured(Params{Nodes: 32, Scale: 1.5, Seed: 99})
		warm := c.gen()
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s: programs from a recycled builder differ from a fresh builder's", c.name)
		}
		for n, prog := range warm {
			if cap(prog) != len(prog) {
				t.Errorf("%s: node %d program has cap %d, len %d", c.name, n, cap(prog), len(prog))
			}
		}
		if got, want := opsDigest(warm), opsDigests[c.name]; got != want {
			t.Errorf("%s: ops digest %s, want %s", c.name, got, want)
		}
	}
}

// TestGenerateAllocGuard bounds what one generation allocates on a warm
// builder at the fleet size: at most twice the program set's own bytes.
func TestGenerateAllocGuard(t *testing.T) {
	const gens = 20
	dropFreeBuilders()
	for _, app := range Apps() {
		progs := app.Generate(fleetParams)
		ops := 0
		for _, prog := range progs {
			ops += len(prog)
		}
		size := uint64(ops) * uint64(unsafe.Sizeof(machine.Op{}))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < gens; i++ {
			app.Generate(fleetParams)
		}
		runtime.ReadMemStats(&m1)
		per := (m1.TotalAlloc - m0.TotalAlloc) / gens
		t.Logf("%s: %d B per generation, %.2fx its %d ops", app.Name, per, float64(per)/float64(size), ops)
		if per > 2*size {
			t.Errorf("%s: one generation allocates %d B, want at most %d (2x its %d ops)", app.Name, per, 2*size, ops)
		}
	}
}

// TestIdleBuildersReleaseLargeBuffers checks that buffers grown by large
// generations do not stay idle once generations shrink, even when a
// small builder sits behind them on the free list: every idle builder is
// reused in turn, and finish drops one that holds far more than it
// produced.
func TestIdleBuildersReleaseLargeBuffers(t *testing.T) {
	const largeOps = 1 << 14
	dropFreeBuilders()
	large := Params{Nodes: 32, Seed: 1}
	bs := []*build{newBuild(large), newBuild(large), newBuild(large), newBuild(fleetParams)}
	for _, b := range bs[:3] {
		for i := 0; i < largeOps; i++ {
			b.read(mem.NodeID(i%b.nodes), b.alloc(0))
		}
	}
	bs[3].read(0, bs[3].alloc(0))
	for _, b := range bs {
		b.finish()
	}
	for i := range bs {
		Apps()[i].Generate(fleetParams)
	}
	builders.Lock()
	defer builders.Unlock()
	for i, b := range builders.free {
		if held := b.held(); held >= largeOps*int(unsafe.Sizeof(machine.Op{})) {
			t.Errorf("idle builder %d still holds %d B of a large generation's buffers", i, held)
		}
	}
}

// TestConcurrentGenerations runs generators from several goroutines at
// once, so builders pass between them through the free list; every
// generation must still equal a sequential one.
func TestConcurrentGenerations(t *testing.T) {
	apps := Apps()
	want := make([][]machine.Program, len(apps))
	for i, app := range apps {
		want[i] = app.Generate(fleetParams)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % len(apps)
				if got := apps[k].Generate(fleetParams); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%s: concurrent generation differs from a sequential one", apps[k].Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}
