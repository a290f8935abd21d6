package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Benchmark mirrors one entry of cmd/benchjson's output.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Host mirrors cmd/benchjson's machine stamp.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (h *Host) String() string {
	if h == nil {
		return "unknown host"
	}
	return fmt.Sprintf("%q (nproc %d, GOMAXPROCS %d)", h.CPU, h.NProc, h.GOMAXPROCS)
}

// Report mirrors cmd/benchjson's emitted document. Host is nil in
// records written before benchjson stamped them.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Host       *Host       `json:"host"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// sameHost refuses to compare records measured on different machines:
// every ns/op — and, through the worker count, study allocs/op — moves
// with the host, so a cross-host diff would flag the host, not the
// change. An unstamped record is from an unknown host and matches none.
func sameHost(oldPath string, oldRep Report, newPath string, newRep Report) error {
	if oldRep.Host == nil || newRep.Host == nil || *oldRep.Host != *newRep.Host {
		return fmt.Errorf("records come from different hosts: %s from %s, %s from %s",
			oldPath, oldRep.Host, newPath, newRep.Host)
	}
	return nil
}

type config struct {
	dir          string
	maxNsRegress float64
	base         string   // explicit older baseline record (-base)
	explicit     []string // two explicit files, bypassing discovery
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.dir, "dir", ".", "directory holding BENCH_PR<N>.json records")
	fs.StringVar(&cfg.base, "base", "",
		"compare the newest record against this baseline instead of the second-newest (a path, or a bare BENCH_PR<N>.json name resolved in -dir)")
	fs.Float64Var(&cfg.maxNsRegress, "max-ns-regress", 0.15,
		"maximum tolerated fractional ns/op increase (0.15 = 15%)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch fs.NArg() {
	case 0:
	case 2:
		if cfg.base != "" {
			return cfg, fmt.Errorf("-base conflicts with two explicit positional files")
		}
		cfg.explicit = fs.Args()
	default:
		return cfg, fmt.Errorf("expected zero or two positional files, got %d", fs.NArg())
	}
	return cfg, nil
}

var benchFileRe = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// pickFiles returns the (older, newer) records to compare. With explicit
// files they are taken verbatim; otherwise the newest record is the
// highest-numbered BENCH_PR<N>.json in cfg.dir and the baseline is the
// second-newest — or, with -base, an arbitrary older record (the series
// skips generations, so cross-PR comparisons need not be adjacent). An
// empty older path means there is nothing to compare.
func (cfg config) pickFiles() (oldPath, newPath string, err error) {
	if len(cfg.explicit) == 2 {
		return cfg.explicit[0], cfg.explicit[1], nil
	}
	entries, err := os.ReadDir(cfg.dir)
	if err != nil {
		return "", "", err
	}
	type rec struct {
		n    int
		path string
	}
	var recs []rec
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		recs = append(recs, rec{n: n, path: filepath.Join(cfg.dir, e.Name())})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].n < recs[j].n })
	if cfg.base != "" {
		if len(recs) == 0 {
			return "", "", fmt.Errorf("no BENCH_PR<N>.json records in %s to compare against -base", cfg.dir)
		}
		newPath = recs[len(recs)-1].path
		oldPath = cfg.base
		// A bare record name resolves inside -dir, so `-base BENCH_PR4.json
		// -dir path` works without repeating the directory.
		if filepath.Dir(oldPath) == "." && benchFileRe.MatchString(oldPath) {
			oldPath = filepath.Join(cfg.dir, oldPath)
		}
		if _, err := os.Stat(oldPath); err != nil {
			return "", "", fmt.Errorf("baseline %s: %w", cfg.base, err)
		}
		if oldPath == newPath {
			return "", "", fmt.Errorf("baseline %s is the newest record itself", cfg.base)
		}
		return oldPath, newPath, nil
	}
	if len(recs) < 2 {
		return "", "", nil
	}
	return recs[len(recs)-2].path, recs[len(recs)-1].path, nil
}

func load(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Result summarizes one comparison.
type Result struct {
	Compared       int
	NsImproved     int
	AllocsImproved int
	Regressions    []string
	// New lists benchmarks present only in the newer record. A new
	// benchmark has no history to regress against, so it is reported
	// (its first record becomes the baseline the next comparison
	// enforces) rather than failed.
	New []string
}

// minNsIters is the iteration count below which a recorded ns/op is
// treated as noise rather than a measurement: a single-shot timing of a
// full study simulation swings ±20% with machine load, so two such
// points cannot support a regression verdict. Allocation counts are
// exact at any iteration count (the simulations are deterministic), so
// the allocs/op check always applies.
const minNsIters = 3

// compare checks every benchmark present in both reports. allocs/op may
// never increase; ns/op may not increase by more than maxNsRegress, and
// is only judged when both records measured at least minNsIters
// iterations. A benchmark present in the old record but absent from the
// new one is itself a regression: the history point it contributed has
// silently disappeared (a deleted guard, or an incomplete bench run).
func compare(oldRep, newRep Report, maxNsRegress float64) Result {
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	newNames := make(map[string]bool, len(newRep.Benchmarks))
	for _, b := range newRep.Benchmarks {
		newNames[b.Name] = true
	}
	var res Result
	for _, ob := range oldRep.Benchmarks {
		if !newNames[ob.Name] {
			res.Regressions = append(res.Regressions, fmt.Sprintf(
				"%s: present in old record but missing from new one", ob.Name))
		}
	}
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			res.New = append(res.New, nb.Name)
			continue
		}
		res.Compared++
		oldAllocs, oldHasAllocs := ob.Metrics["allocs/op"]
		newAllocs, newHasAllocs := nb.Metrics["allocs/op"]
		if oldHasAllocs && newHasAllocs {
			switch {
			case newAllocs > oldAllocs:
				res.Regressions = append(res.Regressions, fmt.Sprintf(
					"%s: allocs/op %.0f -> %.0f", nb.Name, oldAllocs, newAllocs))
			case newAllocs < oldAllocs:
				res.AllocsImproved++
			}
		}
		oldNs, oldHasNs := ob.Metrics["ns/op"]
		newNs, newHasNs := nb.Metrics["ns/op"]
		if oldHasNs && newHasNs && oldNs > 0 &&
			ob.Iterations >= minNsIters && nb.Iterations >= minNsIters {
			switch {
			case newNs > oldNs*(1+maxNsRegress):
				res.Regressions = append(res.Regressions, fmt.Sprintf(
					"%s: ns/op %.0f -> %.0f (+%.0f%%, limit %.0f%%)",
					nb.Name, oldNs, newNs, (newNs/oldNs-1)*100, maxNsRegress*100))
			case newNs < oldNs:
				res.NsImproved++
			}
		}
	}
	return res
}
