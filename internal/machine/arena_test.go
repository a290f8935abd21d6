package machine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
)

// arenaProgs generates a deterministic synthetic workload exercising
// every machine surface the arena must reset: remote reads and writes
// (producer/consumer and migratory blocks), compute delays, barriers,
// and a contended lock.
func arenaProgs(shape string, nodes int, seed int64) []Program {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]Program, nodes)
	shared := make([]mem.BlockAddr, 2*nodes)
	for i := range shared {
		shared[i] = mem.MakeAddr(mem.NodeID(i%nodes), uint64(i/nodes))
	}
	iters := 4
	for it := 0; it < iters; it++ {
		for n := 0; n < nodes; n++ {
			blk := shared[(n+it)%len(shared)]
			switch shape {
			case "pc": // producer writes, two consumers read
				progs[n] = append(progs[n], Write(blk), Compute(sim.Cycle(10+rng.Intn(20))))
				progs[n] = append(progs[n], Read(shared[(n+it+1)%len(shared)]))
			case "mig": // read-then-write migration chain with a lock
				progs[n] = append(progs[n], Lock(0), Read(blk), Write(blk), Unlock(0))
				progs[n] = append(progs[n], Compute(sim.Cycle(5+rng.Intn(10))))
			}
		}
		for n := range progs {
			progs[n] = append(progs[n], Barrier())
		}
	}
	return progs
}

func arenaCfg(mode string) Config {
	cfg := Config{Nodes: 4}
	switch mode {
	case "base":
	case "swi":
		cfg.EnableFR = true
		cfg.EnableSWI = true
		cfg.Active = &PredictorSpec{Kind: core.KindVMSP, Depth: 1}
		cfg.Observers = []PredictorSpec{{Kind: core.KindMSP, Depth: 2}}
	}
	return cfg
}

// TestArenaResetEquivalence is the tentpole contract: a machine reused
// through an Arena produces results deep-equal to a freshly built
// machine for every job, across two workload shapes, two seeds, and two
// machine configurations — interleaved so every reuse follows a
// different (workload, config) than the one that warmed the machine.
func TestArenaResetEquivalence(t *testing.T) {
	arena := NewArena()
	for _, seed := range []int64{11, 23} {
		for _, shape := range []string{"pc", "mig"} {
			for _, mode := range []string{"base", "swi"} {
				progs := arenaProgs(shape, 4, seed)
				fresh, err := New(arenaCfg(mode)).Run(progs)
				if err != nil {
					t.Fatalf("%s/%s/seed%d fresh: %v", shape, mode, seed, err)
				}
				reused, err := arena.Run(arenaCfg(mode), progs)
				if err != nil {
					t.Fatalf("%s/%s/seed%d arena: %v", shape, mode, seed, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s/seed%d: arena result diverged from fresh build\nfresh:  %+v\nreused: %+v",
						shape, mode, seed, fresh, reused)
				}
			}
		}
	}
	if n := arena.Machines(); n != 2 {
		t.Errorf("arena holds %d machines, want 2 (one per distinct config)", n)
	}
}

// TestArenaRepeatedReuseStable replays the same job many times through
// one arena machine: any state leaking across runs would drift the
// result.
func TestArenaRepeatedReuseStable(t *testing.T) {
	arena := NewArena()
	progs := arenaProgs("pc", 4, 7)
	first, err := arena.Run(arenaCfg("swi"), progs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := arena.Run(arenaCfg("swi"), progs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("reuse %d drifted:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestArenaKeysFlight pins the latency sweep's use of the arena: the
// flight latency is part of a machine's identity, so two flights occupy
// two machines, and each run, revisits included, is deep-equal to a
// machine freshly built with that flight.
func TestArenaKeysFlight(t *testing.T) {
	arena := NewArena()
	progs := arenaProgs("pc", 4, 7)
	var results []*Result
	for _, flight := range []sim.Cycle{80, 320, 80, 320} {
		cfg := arenaCfg("swi")
		cfg.Flight = flight
		fresh, err := New(cfg).Run(progs)
		if err != nil {
			t.Fatalf("flight %d fresh: %v", flight, err)
		}
		reused, err := arena.Run(cfg, progs)
		if err != nil {
			t.Fatalf("flight %d arena: %v", flight, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("flight %d: arena machine diverged from fresh build\nfresh:  %+v\nreused: %+v",
				flight, fresh, reused)
		}
		results = append(results, reused)
	}
	if results[0].Cycles == results[1].Cycles {
		t.Errorf("flights 80 and 320 both ran %d cycles; the flight must retime the run", results[0].Cycles)
	}
	if n := arena.Machines(); n != 2 {
		t.Errorf("arena holds %d machines, want 2 (one per flight)", n)
	}
}

// TestConfigSameSeesEveryField changes one Config field at a time and
// requires the arena's match to tell the configs apart, so a field
// added to Config without a line in same fails here instead of sharing
// one machine between two configurations.
func TestConfigSameSeesEveryField(t *testing.T) {
	base := arenaCfg("swi").withDefaults()
	if !base.same(arenaCfg("swi").withDefaults()) {
		t.Fatal("two builds of one config differ")
	}
	for i := range reflect.TypeFor[Config]().NumField() {
		o := base
		o.Observers = slices.Clone(base.Observers)
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		case reflect.Pointer:
			f.Set(reflect.Zero(f.Type()))
		default:
			t.Fatalf("Config.%s: unhandled kind %v", reflect.TypeFor[Config]().Field(i).Name, f.Kind())
		}
		if base.same(o) {
			t.Errorf("configs differing in Config.%s match", reflect.TypeFor[Config]().Field(i).Name)
		}
	}
	o := base
	o.Active = &PredictorSpec{Kind: base.Active.Kind, Depth: base.Active.Depth + 1}
	if base.same(o) {
		t.Error("configs with different active predictors match")
	}
}

// TestFixedLatenciesFitNearWheel asserts the model's fixed scheduling
// delays — node timing, the default and RTL-sweep network flights, barrier
// and lock hand-off — all land on the kernel's O(1) near wheel. If a new
// latency outgrows sim.WheelSpan the simulator stays correct (the
// overflow heap absorbs it) but the hot path silently slows; this guard
// makes that a conscious decision.
func TestFixedLatenciesFitNearWheel(t *testing.T) {
	cfg := Config{}.withDefaults()
	lat := map[string]sim.Cycle{
		"HitLatency":   protocol.HitLatency,
		"LocalMem":     protocol.LocalMem,
		"BusOverhead":  protocol.BusOverhead,
		"FillOverhead": protocol.FillOverhead,
		"DirOccupancy": protocol.DirOccupancy,
		"MemAccess":    protocol.MemAccess,
		"CacheAccess":  protocol.CacheAccess,
		"LocalHop":     protocol.LocalHop,
		"BarrierExit":  barrierExit,
		"LockTransfer": lockTransfer,
		"MinLatency":   network.SendOccupancy + cfg.Flight + network.RecvOccupancy,
		"RTLFlightMax": network.SendOccupancy + 320 + network.RecvOccupancy,
	}
	for name, c := range lat {
		if c >= sim.WheelSpan {
			t.Errorf("%s = %d cycles does not fit the near wheel (WheelSpan %d)", name, c, sim.WheelSpan)
		}
	}
}

// TestMachineRearmZeroAllocs guards the re-arm path: once a machine has
// run, Reset re-arms it for the next workload without touching the heap
// (tables, queues, dense slices, and pools are all retained).
func TestMachineRearmZeroAllocs(t *testing.T) {
	m := New(arenaCfg("swi"))
	progs := arenaProgs("pc", 4, 7)
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		m.Reset()
	})
	if avg != 0 {
		t.Errorf("Machine.Reset allocates %.2f/op, want 0", avg)
	}
	// The machine must still be runnable (and correct) after the guard's
	// resets.
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
}

// TestArenaRunAllocs pins what a warm Arena.Run allocates on a 16-node
// run with nine observers: the Result and its Procs and Predictors
// slices, each sized once rather than grown by append. Matching the
// config to its machine allocates nothing.
func TestArenaRunAllocs(t *testing.T) {
	cfg := Config{Nodes: 16}
	for _, kind := range []core.Kind{core.KindCosmos, core.KindMSP, core.KindVMSP} {
		for _, depth := range []int{1, 2, 4} {
			cfg.Observers = append(cfg.Observers, PredictorSpec{Kind: kind, Depth: depth})
		}
	}
	progs := arenaProgs("pc", 16, 7)
	arena := NewArena()
	if _, err := arena.Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := arena.Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Errorf("warm Arena.Run allocates %.2f/op, want at most 3", avg)
	}
}
