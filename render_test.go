package specdsm

import (
	"strings"
	"testing"
)

func TestRenderFigure8(t *testing.T) {
	rows := []Figure8Row{{
		App:    "appbt",
		Depths: []int{1, 2, 4},
		Accuracy: map[PredictorKind][]float64{
			Cosmos: {0.9, 0.95, 1.0},
			MSP:    {0.92, 0.96, 1.0},
			VMSP:   {0.92, 1.0, 1.0},
		},
	}}
	out := RenderFigure8(rows)
	for _, want := range []string{"appbt", "d=1", "d=2", "d=4", "VMSP", "100.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if RenderFigure8(nil) != "" {
		t.Error("empty rows should render empty")
	}
}

func TestRenderTable4(t *testing.T) {
	rows := []Table4Row{{
		App:   "barnes",
		PTE1:  map[PredictorKind]float64{Cosmos: 11, MSP: 7, VMSP: 5},
		PTE4:  map[PredictorKind]float64{Cosmos: 42, MSP: 25, VMSP: 12},
		Bytes: map[PredictorKind]float64{Cosmos: 21, MSP: 11, VMSP: 18},
	}}
	out := RenderTable4(rows)
	for _, want := range []string{"barnes", "42.0", "pte", "ovh"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderFigure9AndTable5(t *testing.T) {
	f9 := []figure9Row{{
		App:  "em3d",
		Base: [2]float64{62, 38},
		FR:   [2]float64{53, 31},
		SWI:  [2]float64{54, 16.5},
	}}
	out := renderFigure9(f9)
	for _, want := range []string{"em3d", "Base", "FR", "SWI", "mean execution time"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 9 missing %q", want)
		}
	}
	if f9[0].Total(ModeSWI) != 70.5 {
		t.Errorf("Total(SWI) = %v", f9[0].Total(ModeSWI))
	}
	if f9[0].Total(ModeBase) != 100 {
		t.Errorf("Total(Base) = %v", f9[0].Total(ModeBase))
	}

	t5 := []table5Row{{
		App: "em3d", BaseReads: 100, BaseWrites: 50,
		FRSent: 51.3, SWIReadSent: 80.4, SWIInvalSent: 85.6,
	}}
	out = renderTable5(t5)
	for _, want := range []string{"em3d", "100", "86 /", "write inval"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 5 missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure9RowDerivation(t *testing.T) {
	// figure9 must normalize to the Base run and split by request share.
	study := []appSpeculation{{
		App: "x",
		Base: &RunResult{
			Cycles: 1000, ComputeCycles: 600, SyncCycles: 0, RequestWaitCycles: 400,
		},
		FR: &RunResult{
			Cycles: 900, ComputeCycles: 600, SyncCycles: 0, RequestWaitCycles: 300,
		},
		SWI: &RunResult{
			Cycles: 800, ComputeCycles: 600, SyncCycles: 0, RequestWaitCycles: 200,
		},
	}}
	rows := figure9(study)
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	r := rows[0]
	if r.Base[0]+r.Base[1] != 100 {
		t.Fatalf("base total %v", r.Base)
	}
	if got := r.Total(ModeFR); got != 90 {
		t.Fatalf("FR total = %v, want 90", got)
	}
	if got := r.Total(ModeSWI); got != 80 {
		t.Fatalf("SWI total = %v, want 80", got)
	}
	// Request share of SWI: 200/800 of processor time -> 25% of its 80.
	if r.SWI[1] < 19 || r.SWI[1] > 21 {
		t.Fatalf("SWI request segment = %v, want ~20", r.SWI[1])
	}
}

func TestTable5Derivation(t *testing.T) {
	study := []appSpeculation{{
		App:  "x",
		Base: &RunResult{Reads: 1000, Writes: 300, Upgrades: 200},
		FR:   &RunResult{SpecReadsFR: 400, SpecReadUnused: 40},
		SWI: &RunResult{
			SpecReadsFR: 100, SpecReadsSWI: 700, SpecReadUnused: 16,
			SWIRecalls: 350, SWIPremature: 10,
		},
	}}
	rows := table5(study)
	r := rows[0]
	if r.FRSent != 40 || r.FRMiss != 4 {
		t.Fatalf("FR sent/miss = %v/%v", r.FRSent, r.FRMiss)
	}
	if r.SWIFRSent != 10 || r.SWIReadSent != 70 {
		t.Fatalf("SWI fr/swi sent = %v/%v", r.SWIFRSent, r.SWIReadSent)
	}
	// Misses split proportionally: 16 * 700/800 = 14 to SWI, 2 to FR.
	near := func(got, want float64) bool { return got > want-0.01 && got < want+0.01 }
	if !near(r.SWIReadMiss, 1.4) || !near(r.SWIFRMiss, 0.2) {
		t.Fatalf("miss split = %v/%v", r.SWIFRMiss, r.SWIReadMiss)
	}
	if r.SWIInvalSent != 70 || r.SWIInvalMiss != 2 {
		t.Fatalf("inval = %v/%v", r.SWIInvalSent, r.SWIInvalMiss)
	}
}
