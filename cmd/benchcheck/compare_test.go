package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{
		Name:       name,
		Iterations: 5,
		Metrics:    map[string]float64{"ns/op": ns, "allocs/op": allocs},
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldRep := Report{Benchmarks: []Benchmark{
		bench("Fast", 1000, 10),
		bench("Guarded", 500, 0),
		bench("Slow", 2000, 100),
		bench("Removed", 1, 1),
	}}
	newRep := Report{Benchmarks: []Benchmark{
		bench("Fast", 1100, 10),  // +10% ns: within the 15% budget
		bench("Guarded", 480, 1), // allocs regression: must fail
		bench("Slow", 2400, 90),  // +20% ns: must fail
		bench("Added", 1, 1),     // no baseline: reported as new, never failed
	}}
	res := compare(oldRep, newRep, 0.15)
	if res.Compared != 3 {
		t.Errorf("Compared = %d, want 3", res.Compared)
	}
	if len(res.Regressions) != 3 {
		t.Fatalf("Regressions = %v, want 3 entries", res.Regressions)
	}
	joined := strings.Join(res.Regressions, "\n")
	if !strings.Contains(joined, "Guarded: allocs/op 0 -> 1") {
		t.Errorf("missing allocs regression, got:\n%s", joined)
	}
	if !strings.Contains(joined, "Slow: ns/op") {
		t.Errorf("missing ns regression, got:\n%s", joined)
	}
	if !strings.Contains(joined, "Removed: present in old record but missing") {
		t.Errorf("missing disappeared-benchmark regression, got:\n%s", joined)
	}
	if res.AllocsImproved != 1 { // Slow 100 -> 90
		t.Errorf("AllocsImproved = %d, want 1", res.AllocsImproved)
	}
	if len(res.New) != 1 || res.New[0] != "Added" {
		t.Errorf("New = %v, want [Added]", res.New)
	}
}

// TestCompareReportsNewBenchmarksWithoutFailing pins the history-growth
// rule: a benchmark that first appears in the newest record is reported
// (so the trajectory gaining a point is visible) but is not a
// regression — its first record becomes the baseline the next
// comparison enforces.
func TestCompareReportsNewBenchmarksWithoutFailing(t *testing.T) {
	oldRep := Report{Benchmarks: []Benchmark{bench("Old", 100, 5)}}
	newRep := Report{Benchmarks: []Benchmark{
		bench("Old", 100, 5),
		bench("BrandNew", 900, 900),
		bench("AlsoNew", 1, 0),
	}}
	res := compare(oldRep, newRep, 0.15)
	if len(res.Regressions) != 0 {
		t.Fatalf("new benchmarks flagged as regressions: %v", res.Regressions)
	}
	if len(res.New) != 2 {
		t.Fatalf("New = %v, want 2 entries", res.New)
	}
	joined := strings.Join(res.New, "\n")
	if !strings.Contains(joined, "BrandNew") || !strings.Contains(joined, "AlsoNew") {
		t.Errorf("New = %v, want BrandNew and AlsoNew", res.New)
	}
}

// TestCompareSkipsNsOnSingleShotRecords pins the noise rule: a record
// measured with fewer than minNsIters iterations cannot trip (or pass)
// the ns/op check, but its allocation counts are still binding.
func TestCompareSkipsNsOnSingleShotRecords(t *testing.T) {
	oneShot := func(name string, ns, allocs float64) Benchmark {
		b := bench(name, ns, allocs)
		b.Iterations = 1
		return b
	}
	oldRep := Report{Benchmarks: []Benchmark{oneShot("Study", 1000, 50)}}
	newRep := Report{Benchmarks: []Benchmark{bench("Study", 5000, 60)}}
	res := compare(oldRep, newRep, 0.15)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "allocs/op") {
		t.Fatalf("want only the allocs regression, got %v", res.Regressions)
	}
}

func TestCompareAllImprovedPasses(t *testing.T) {
	oldRep := Report{Benchmarks: []Benchmark{bench("A", 1000, 10)}}
	newRep := Report{Benchmarks: []Benchmark{bench("A", 500, 0)}}
	res := compare(oldRep, newRep, 0.15)
	if len(res.Regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", res.Regressions)
	}
	if res.NsImproved != 1 || res.AllocsImproved != 1 {
		t.Errorf("improved counts = %d/%d, want 1/1", res.NsImproved, res.AllocsImproved)
	}
}

func TestPickFilesChoosesTwoNewest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR2.json", "BENCH_PR3.json", "BENCH_PR10.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldPath, newPath, err := config{dir: dir}.pickFiles()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(oldPath) != "BENCH_PR3.json" || filepath.Base(newPath) != "BENCH_PR10.json" {
		t.Errorf("picked %s -> %s, want BENCH_PR3.json -> BENCH_PR10.json", oldPath, newPath)
	}
}

func TestPickFilesSingleRecordMeansNothingToCompare(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_PR2.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldPath, newPath, err := config{dir: dir}.pickFiles()
	if err != nil {
		t.Fatal(err)
	}
	if oldPath != "" || newPath != "" {
		t.Errorf("picked %q -> %q, want empty", oldPath, newPath)
	}
}

func TestPickFilesBaseSelectsArbitraryBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR2.json", "BENCH_PR4.json", "BENCH_PR6.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A bare record name resolves inside -dir.
	oldPath, newPath, err := config{dir: dir, base: "BENCH_PR2.json"}.pickFiles()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(oldPath) != "BENCH_PR2.json" || filepath.Base(newPath) != "BENCH_PR6.json" {
		t.Errorf("picked %s -> %s, want BENCH_PR2.json -> BENCH_PR6.json", oldPath, newPath)
	}
	// A full path is taken verbatim.
	oldPath, _, err = config{dir: dir, base: filepath.Join(dir, "BENCH_PR4.json")}.pickFiles()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(oldPath) != "BENCH_PR4.json" {
		t.Errorf("explicit-path base picked %s, want BENCH_PR4.json", oldPath)
	}
}

func TestPickFilesBaseErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := (config{dir: dir, base: "BENCH_PR1.json"}).pickFiles(); err == nil {
		t.Error("no records at all: want error, got nil")
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_PR5.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (config{dir: dir, base: "BENCH_PR3.json"}).pickFiles(); err == nil {
		t.Error("missing baseline file: want error, got nil")
	}
	if _, _, err := (config{dir: dir, base: "BENCH_PR5.json"}).pickFiles(); err == nil {
		t.Error("baseline == newest record: want error, got nil")
	}
}

func TestRunEndToEndWithBase(t *testing.T) {
	dir := t.TempDir()
	writeJSON := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// PR1 -> PR4 regresses allocs; PR3 -> PR4 does not. The adjacent
	// default compares PR3, -base reaches back to PR1.
	writeJSON("BENCH_PR1.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":100,"allocs/op":2}}]}`)
	writeJSON("BENCH_PR3.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":100,"allocs/op":5}}]}`)
	writeJSON("BENCH_PR4.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":95,"allocs/op":5}}]}`)
	var out, errOut strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("adjacent run = %d, want 0; stdout: %s", code, out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-dir", dir, "-base", "BENCH_PR1.json"}, &out, &errOut); code != 1 {
		t.Fatalf("-base run = %d, want 1 (allocs regression vs PR1); stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION line in -base output: %s", out.String())
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeJSON := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON("BENCH_PR1.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":100,"allocs/op":5}}]}`)
	writeJSON("BENCH_PR2.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":90,"allocs/op":5}}]}`)
	var out, errOut strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errOut.String())
	}
	writeJSON("BENCH_PR3.json",
		`{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":1,"metrics":{"ns/op":90,"allocs/op":6}}]}`)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1 (allocs regression); stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION line in output: %s", out.String())
	}
}

// TestRunRefusesDifferentHosts pins the host gate: records measured on
// different machines — or one written before records carried a host
// stamp — fail with one error naming both hosts, and no per-benchmark
// verdicts that would blame the change for the host.
func TestRunRefusesDifferentHosts(t *testing.T) {
	for name, oldHost := range map[string]string{
		"other host": `"host":{"cpu":"other cpu","nproc":1,"gomaxprocs":1},`,
		"unstamped":  ``,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, body := range map[string]string{
				"BENCH_PR1.json": `{` + oldHost + `"benchmarks":[{"name":"X","iterations":5,"metrics":{"ns/op":100,"allocs/op":5}}]}`,
				"BENCH_PR2.json": `{"host":{"cpu":"test cpu","nproc":2,"gomaxprocs":2},"benchmarks":[{"name":"X","iterations":5,"metrics":{"ns/op":500,"allocs/op":9}}]}`,
			} {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out, errOut strings.Builder
			if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
				t.Fatalf("run = %d, want 1; stderr: %s", code, errOut.String())
			}
			msg := errOut.String()
			want := "unknown host"
			if oldHost != "" {
				want = `"other cpu" (nproc 1, GOMAXPROCS 1)`
			}
			for _, frag := range []string{"records come from different hosts", want, `"test cpu" (nproc 2, GOMAXPROCS 2)`} {
				if !strings.Contains(msg, frag) {
					t.Errorf("stderr missing %q: %s", frag, msg)
				}
			}
			if strings.Count(msg, "\n") != 1 || strings.Contains(out.String(), "REGRESSION") {
				t.Errorf("want exactly one error line and no verdicts; stdout: %s stderr: %s", out.String(), msg)
			}
		})
	}
}
