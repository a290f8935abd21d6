package machine

import (
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/trace"
)

func TestAttachObserverSeesAllDirectories(t *testing.T) {
	m := New(Config{Nodes: 4})
	rec := trace.NewRecorder(m.Kernel(), "test", 4, 0)
	m.AttachObserver(rec)
	// Traffic to two different homes.
	progs := []Program{
		{Write(mem.MakeAddr(1, 0)), Read(mem.MakeAddr(2, 0))},
		{Read(mem.MakeAddr(1, 0))},
		{},
		{},
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if len(tr.Events) == 0 {
		t.Fatal("recorder saw nothing")
	}
	homes := map[mem.NodeID]bool{}
	for _, e := range tr.Events {
		homes[mem.BlockAddr(e.Addr).Home()] = true
	}
	if !homes[1] || !homes[2] {
		t.Fatalf("recorder missed a directory: %v", homes)
	}
	// Events carry nonzero cycles (stamped by the machine's kernel).
	var sawNonzero bool
	for _, e := range tr.Events {
		if e.Cycle > 0 {
			sawNonzero = true
		}
	}
	if !sawNonzero {
		t.Fatal("events not clock-stamped")
	}
}

func TestSpecHitLatencyAccounting(t *testing.T) {
	cfg := Config{Nodes: 4, EnableFR: true, EnableSWI: true}
	cfg.Active = &PredictorSpec{Kind: core.KindVMSP, Depth: 1}
	m := New(cfg)
	progs := producerConsumerPrograms(4, 8, 6)
	r, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	var specHits uint64
	for _, p := range r.Procs {
		specHits += p.SpecHits
	}
	if specHits == 0 {
		t.Fatal("no spec hits")
	}
	// Every read and write lands in exactly one class: spec hits are not
	// double-counted as ordinary hits or remotes.
	for i, p := range r.Procs {
		var ops uint64
		for _, op := range progs[i] {
			if op.Kind == OpRead || op.Kind == OpWrite {
				ops++
			}
		}
		if got := p.Hits + p.SpecHits + p.Locals + p.Remotes; got != ops || ops == 0 {
			t.Fatalf("proc %d: access classes sum to %d, program has %d reads and writes: %+v", i, got, ops, p)
		}
	}
}

func TestPredictorSpecString(t *testing.T) {
	s := PredictorSpec{Kind: core.KindVMSP, Depth: 2}
	if s.String() != "VMSP(d=2)" {
		t.Fatalf("String = %q", s.String())
	}
	s.Confidence = 2
	if s.String() != "VMSP(d=2,conf=2)" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestConfidenceSpecBuilds(t *testing.T) {
	cfg := Config{Nodes: 4, EnableFR: true}
	cfg.Active = &PredictorSpec{Kind: core.KindVMSP, Depth: 1, Confidence: 3}
	m := New(cfg)
	r, err := m.Run(producerConsumerPrograms(4, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	// With a max-confidence gate and only 3 iterations, forwards are rare
	// or absent — but the run must be correct either way.
	if r.Cycles == 0 {
		t.Fatal("degenerate run")
	}
}
