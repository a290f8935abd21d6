package main

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: specdsm
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkFig7PredictorAccuracy 	       1	 86783413 ns/op	        77.75 meanCosmos%	        94.92 meanVMSP%	16781808 B/op	   79749 allocs/op
--- BENCH: BenchmarkFig7PredictorAccuracy
    bench_test.go:37:
        Figure 7 ...
BenchmarkObserve/VMSP/d4 	  100000	        25.33 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelSchedule-8 	  100000	       109.7 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	specdsm	1.063s
`

func TestParse(t *testing.T) {
	var echoed strings.Builder
	report, err := parse(strings.NewReader(sampleLog), &echoed)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.String() != sampleLog {
		t.Error("input not echoed verbatim")
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}

	fig7 := report.Benchmarks[0]
	if fig7.Name != "Fig7PredictorAccuracy" || fig7.Iterations != 1 {
		t.Fatalf("fig7 = %+v", fig7)
	}
	for unit, want := range map[string]float64{
		"ns/op":       86783413,
		"meanCosmos%": 77.75,
		"meanVMSP%":   94.92,
		"B/op":        16781808,
		"allocs/op":   79749,
	} {
		if got := fig7.Metrics[unit]; got != want {
			t.Errorf("fig7 %s = %v, want %v", unit, got, want)
		}
	}

	sub := report.Benchmarks[1]
	if sub.Name != "Observe/VMSP/d4" {
		t.Fatalf("sub-benchmark name = %q", sub.Name)
	}
	if sub.Metrics["allocs/op"] != 0 {
		t.Errorf("allocs/op = %v, want 0", sub.Metrics["allocs/op"])
	}

	if report.Benchmarks[2].Name != "KernelSchedule-8" {
		t.Errorf("name with GOMAXPROCS suffix = %q", report.Benchmarks[2].Name)
	}
	host := report.Host
	if host.CPU != "Intel(R) Xeon(R) CPU @ 2.20GHz" || host.NProc != runtime.NumCPU() || host.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("host stamp = %+v", host)
	}
}

// TestParseFoldsRepeatedSamplesToMin pins the -count=K contract: a
// benchmark appearing several times collapses into one entry holding the
// per-metric minimum, so a single noisy sample cannot inflate (or, for
// custom deterministic metrics, change) the recorded point.
func TestParseFoldsRepeatedSamplesToMin(t *testing.T) {
	log := `BenchmarkCacheHit 	1000	 190 ns/op	 0 B/op	 0 allocs/op
BenchmarkCacheHit 	1000	 145 ns/op	 0 B/op	 0 allocs/op
BenchmarkCacheHit 	1000	 162 ns/op	 0 B/op	 0 allocs/op
BenchmarkOther 	3	 100 ns/op	 7 allocs/op
`
	report, err := parse(strings.NewReader(log), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (samples folded)", len(report.Benchmarks))
	}
	hit := report.Benchmarks[0]
	if hit.Name != "CacheHit" {
		t.Fatalf("name = %q", hit.Name)
	}
	if hit.Metrics["ns/op"] != 145 {
		t.Errorf("ns/op = %v, want the 145 minimum", hit.Metrics["ns/op"])
	}
	if hit.Iterations != 1000 {
		t.Errorf("iterations = %d, want 1000", hit.Iterations)
	}
	if report.Benchmarks[1].Metrics["allocs/op"] != 7 {
		t.Errorf("single-sample benchmark altered: %+v", report.Benchmarks[1])
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	specdsm	1.063s",
		"--- BENCH: BenchmarkFig7PredictorAccuracy",
		"BenchmarkBroken abc 1 ns/op",
		"Benchmark 1", // too short
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}
