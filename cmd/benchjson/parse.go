package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the "Benchmark" prefix stripped,
	// including sub-benchmark path (e.g. "Observe/VMSP/d4-8").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "value unit" pair on the line:
	// ns/op, B/op, allocs/op, and custom b.ReportMetric units such as
	// "meanVMSP%" or "em3dSWIinval%".
	Metrics map[string]float64 `json:"metrics"`
}

// Host identifies the machine a record was measured on. Timings, and
// through the worker count even allocation counts, depend on it, so
// benchcheck only compares records whose hosts match.
type Host struct {
	// CPU is the model the bench log's "cpu:" header names.
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Host       Host        `json:"host"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse reads a `go test -bench` log from r, echoing every line to echo,
// and returns the structured report, stamped with this process's CPU
// count and GOMAXPROCS (run it under the same environment as the
// benchmarks) and the log's CPU model. A benchmark appearing several times
// (a `-count=K` run) is folded into one entry holding the per-metric
// minimum: simulated results and allocation counts are deterministic, so
// repeated samples only differ by scheduling noise, and the minimum of K
// timings is the standard robust estimate of a benchmark's true cost —
// noise on a loaded machine is strictly additive.
func parse(r io.Reader, echo io.Writer) (Report, error) {
	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Host:       Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Benchmarks: []Benchmark{},
	}
	index := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.Host.CPU = strings.TrimSpace(cpu)
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		at, seen := index[b.Name]
		if !seen {
			index[b.Name] = len(report.Benchmarks)
			report.Benchmarks = append(report.Benchmarks, b)
			continue
		}
		prev := &report.Benchmarks[at]
		for unit, v := range b.Metrics {
			if old, ok := prev.Metrics[unit]; !ok || v < old {
				prev.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return report, err
	}
	return report, nil
}

// parseLine recognizes result lines of the form
//
//	BenchmarkName-8   123  456.7 ns/op  12 B/op  3 allocs/op  9.9 custom%
//
// and ignores everything else (log output, "--- BENCH:" blocks, ok/PASS
// lines).
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Name, iterations, and at least one "value unit" pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimPrefix(fields[0], "Benchmark"),
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
