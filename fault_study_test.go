package specdsm

// Study-level failure-model tests: injected transient faults plus a
// retry budget must leave study output byte-identical to a clean run,
// and KeepGoing must turn fatal job failures into ordered FAILED rows
// instead of aborting — at every worker count.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func faultCfg() StudyConfig {
	return StudyConfig{
		Apps:  []string{"em3d", "moldyn", "tomcatv"},
		Nodes: 8, Iterations: 3, Scale: 0.25, Seed: 11,
	}
}

// TestStudyTransientFaultInvariance pins the PR's headline determinism
// guarantee at the study level: a sweep peppered with injected transient
// faults and delays, given a retry budget, produces results deep-equal
// to a fault-free run, sequentially and in parallel.
func TestStudyTransientFaultInvariance(t *testing.T) {
	clean, err := collectRows(faultCfg(), PredictorStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		cfg := faultCfg()
		cfg.Parallel = parallel
		cfg.FaultSpec = "seed=7,transient=0.4,delay=0.5,delaymax=16"
		cfg.Retries = 8
		faulty, err := collectRows(cfg, PredictorStudyStream)
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		if !reflect.DeepEqual(clean, faulty) {
			t.Fatalf("parallel %d: faulted study diverged from clean run:\n%+v\nvs\n%+v",
				parallel, clean, faulty)
		}
	}
}

// TestStudyKeepGoingFailedRows drives every job into an injected panic:
// with KeepGoing the study completes with one FAILED row per
// application, identically at every worker count, and the derivations
// plus renderers pass the failure through instead of dereferencing
// missing runs.
func TestStudyKeepGoingFailedRows(t *testing.T) {
	var ref []appSpeculation
	for _, parallel := range []int{1, 8} {
		cfg := faultCfg()
		cfg.Parallel = parallel
		cfg.FaultSpec = "seed=3,panic=1"
		cfg.KeepGoing = true
		rows, err := collectRows(cfg, speculationStudyStream)
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		if len(rows) != len(cfg.Apps) {
			t.Fatalf("parallel %d: got %d rows, want %d", parallel, len(rows), len(cfg.Apps))
		}
		for _, r := range rows {
			if r.Failed == "" {
				t.Fatalf("parallel %d: %s should have failed under panic=1", parallel, r.App)
			}
			if !strings.Contains(r.Failed, "injected panic") {
				t.Fatalf("parallel %d: %s failure lost the panic text: %q", parallel, r.App, r.Failed)
			}
			if r.Base != nil || r.FR != nil || r.SWI != nil {
				t.Fatalf("parallel %d: %s FAILED row carries run pointers", parallel, r.App)
			}
		}
		if ref == nil {
			ref = rows
		} else if !reflect.DeepEqual(ref, rows) {
			t.Fatalf("FAILED rows diverged between worker counts:\n%+v\nvs\n%+v", ref, rows)
		}
	}

	fig9 := figure9(ref)
	tab5 := table5(ref)
	for i := range ref {
		if fig9[i].Failed == "" || tab5[i].Failed == "" {
			t.Fatalf("derivations dropped the failure marker: %+v / %+v", fig9[i], tab5[i])
		}
	}
	for _, text := range []string{renderFigure9(fig9), renderTable5(tab5)} {
		if !strings.Contains(text, "FAILED") {
			t.Fatalf("renderer hides FAILED rows:\n%s", text)
		}
	}
	if !strings.Contains(renderFigure9(fig9), "unavailable") {
		t.Fatal("all-failed Figure 9 should report the mean as unavailable")
	}
}

// TestStudyKeepGoingPartialFailure fails exactly one application's jobs
// (fatal, not retryable) and checks the survivors are untouched: their
// rows match a clean run of the same configuration.
func TestStudyKeepGoingPartialFailure(t *testing.T) {
	clean, err := collectRows(faultCfg(), PredictorStudyStream)
	if err != nil {
		t.Fatal(err)
	}
	// Hunt a fault seed that fails some but not all of the three jobs;
	// decisions are pure hashes, so the first qualifying seed is stable.
	for seed := 1; seed <= 32; seed++ {
		cfg := faultCfg()
		cfg.KeepGoing = true
		cfg.FaultSpec = fmt.Sprintf("seed=%d,panic=0.5", seed)
		rows, err := collectRows(cfg, PredictorStudyStream)
		if err != nil {
			t.Fatal(err)
		}
		var failed, ok int
		for i, r := range rows {
			if r.Failed != "" {
				failed++
			} else {
				ok++
				if !reflect.DeepEqual(r, clean[i]) {
					t.Fatalf("surviving row %s diverged from clean run", r.App)
				}
			}
		}
		if failed > 0 && ok > 0 {
			return // found the mixed outcome we wanted
		}
	}
	t.Fatal("no fault seed in [1,32] produced a mixed failure outcome")
}

// TestValidateFailureKnobs covers the new StudyConfig validation.
func TestValidateFailureKnobs(t *testing.T) {
	cfg := faultCfg()
	cfg.Retries = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative retry budget validated")
	}
	cfg = faultCfg()
	cfg.FaultSpec = "transient=not-a-number"
	if err := cfg.Validate(); err == nil {
		t.Fatal("malformed fault spec validated")
	}
	cfg.FaultSpec = "seed=7,transient=0.2,panic=0.01"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid fault spec rejected: %v", err)
	}
}
