// Command benchcheck guards the repo's committed performance trajectory.
// It locates the two most recent BENCH_PR<N>.json records (written by
// `make bench` via cmd/benchjson), compares every benchmark present in
// both, and fails when the newer record regresses:
//
//   - any increase in allocs/op fails — the simulator's hot paths are
//     deterministic, so allocation counts are exact, and the guarded
//     0-allocs/op benchmarks (Observe, KernelSchedule, DirectoryServe,
//     CacheHit) must never grow a heap allocation silently;
//   - an ns/op increase beyond -max-ns-regress (default 15%) fails,
//     judged only when both records measured at least 3 iterations
//     (single-shot timings of full study simulations are noise, not
//     measurements; allocation counts are exact at any count).
//
// Both records must carry the same host stamp (cmd/benchjson writes
// it); records from different or unknown hosts fail with one error
// naming both instead of a flag per benchmark.
//
// Benchmarks appearing for the first time in the newest record are
// reported (not failed): they have no history to regress against, and
// their first record becomes the baseline the next comparison enforces.
//
// `make bench-check` wires it into `make check`, so a PR that lands a new
// BENCH_PR<N>.json point proves on the spot that it did not walk back the
// previous one. With fewer than two records the check passes trivially.
//
//	benchcheck            # compare the two newest BENCH_PR<N>.json in .
//	benchcheck -dir path  # look elsewhere
//	benchcheck old.json new.json   # compare two explicit records
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	oldPath, newPath, err := cfg.pickFiles()
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	if oldPath == "" {
		fmt.Fprintf(stdout, "benchcheck: fewer than two BENCH_PR<N>.json records in %s; nothing to compare\n", cfg.dir)
		return 0
	}
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	if err := sameHost(oldPath, oldRep, newPath, newRep); err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 1
	}
	result := compare(oldRep, newRep, cfg.maxNsRegress)
	fmt.Fprintf(stdout, "benchcheck: %s -> %s: %d benchmarks compared, %d improved ns/op, %d reduced allocs/op\n",
		oldPath, newPath, result.Compared, result.NsImproved, result.AllocsImproved)
	for _, name := range result.New {
		fmt.Fprintf(stdout, "benchcheck: NEW %s (no history; this record is its baseline)\n", name)
	}
	for _, r := range result.Regressions {
		fmt.Fprintf(stdout, "benchcheck: REGRESSION %s\n", r)
	}
	if len(result.Regressions) > 0 {
		fmt.Fprintf(stderr, "benchcheck: %d regressions vs %s\n", len(result.Regressions), oldPath)
		return 1
	}
	return 0
}
