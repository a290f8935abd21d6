package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests run every workload at a tiny size. Child processes the
// benchmark starts from its own executable (set-up probes, profiling
// shard workers) are this test binary; PERFBENCH_TEST_MAIN makes them
// run main with the same tiny workloads.
const testMainEnv = "PERFBENCH_TEST_MAIN"

// testSeed keeps the tiny rounds clear of the committed digests.
const testSeed = 1001

var sweepdPath string

func TestMain(m *testing.M) {
	shrink()
	if os.Getenv(testMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sweepdPath = filepath.Join(dir, "sweepd")
	if out, err := exec.Command("go", "build", "-o", sweepdPath, "specdsm/cmd/sweepd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building sweepd: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Setenv(testMainEnv, "1")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// shrink makes every workload tiny: two applications on 4 nodes.
func shrink() {
	for name, w := range workloads {
		w.nodes, w.iterations, w.scale = 4, 1, 0.05
		w.apps = []string{"em3d", "moldyn"}
		w.seedsPerRound = 2
		workloads[name] = w
	}
}

func testOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: testSeed, seconds: 0.2, trace: trace,
		sweepd: sweepdPath, workdir: t.TempDir()}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one kind of run.
func benchmarkMetrics(t *testing.T, trace bool) map[string]string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, name := range []string{"predict", "speculate", "fleet"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				r := &reaper{}
				res, err := run(testOptions(t, name, trace), r)
				r.stop()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minJobs {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := benchmarkMetrics(t, trace)
				for metricName, unit := range want {
					got, ok := res.Metrics[metricName]
					if !ok {
						t.Errorf("metric %s not printed", metricName)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", metricName, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				if trace {
					total := 0.0
					for _, g := range profGroups {
						total += res.Metrics["prof."+g].Value
					}
					if total < 1-1e-9 || total > 1+1e-9 {
						t.Errorf("prof.* shares sum to %v", total)
					}
				}
			})
		}
	}
}

func TestDigestGateRejectsPerturbedOutput(t *testing.T) {
	s := &digestStore{dir: t.TempDir(), committed: map[string]map[string]string{
		"predict": {"1": digest("committed output")},
	}}
	if err := s.check("predict", 1, "committed output"); err != nil {
		t.Fatalf("committed digest: %v", err)
	}
	if err := s.check("predict", 1, "committed outpuT"); !errors.Is(err, errMismatch) {
		t.Fatalf("perturbed output against the committed digest: got %v, want a mismatch", err)
	}
	// Other seeds: the first run records, later runs must match it.
	if err := s.check("predict", 16, "first run"); err != nil {
		t.Fatal(err)
	}
	if err := s.check("predict", 16, "first run"); err != nil {
		t.Fatalf("identical rerun: %v", err)
	}
	if err := s.check("predict", 16, "first rum"); !errors.Is(err, errMismatch) {
		t.Fatalf("perturbed rerun: got %v, want a mismatch", err)
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	m, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"predict", "speculate", "fleet"} {
		if len(m[w]["1"]) != 64 {
			t.Errorf("no committed digest for %s at the default seed", w)
		}
	}
}

func TestQuantileReportsP90OnlyWithTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := quantile(mk(100), 0.9); !ok || v != 90 {
		t.Errorf("100 samples: p90 = %v, ok=%t; want 90, true", v, ok)
	}
	if _, ok := quantile(mk(99), 0.9); ok {
		t.Error("99 samples: p90 reported with only 9 samples beyond it")
	}
	if v, ok := quantile(mk(21), 0.5); !ok || v != 11 {
		t.Errorf("21 samples: p50 = %v, ok=%t; want 11, true", v, ok)
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("no samples: p50 reported")
	}
}

func TestCalibrationSpeeds(t *testing.T) {
	var c calibration
	if w, cpu := c.speeds(); w != 1 || cpu != 1 {
		t.Errorf("no bursts: speeds %v, %v; want 1, 1", w, cpu)
	}
	// Arithmetic bursts at 4× and walk bursts at 1× the nominal time
	// make a geometric mean of 2×: the host ran at half speed. The CPU
	// time of both threads at twice the wall time is the same speed.
	nominal := calibNominal.Seconds()
	for _, f := range []float64{3.9, 4, 4.1} {
		c.arith = append(c.arith, burstTime{wall: f * nominal, cpu: 2 * f * nominal})
	}
	for _, f := range []float64{0.9, 1, 1.1} {
		c.walk = append(c.walk, burstTime{wall: f * nominal, cpu: 2 * f * nominal})
	}
	w, cpu := c.speeds()
	if math.Abs(w-0.5) > 1e-12 || math.Abs(cpu-0.5) > 1e-12 {
		t.Errorf("speeds %v, %v; want 0.5, 0.5", w, cpu)
	}
	c = calibration{}
	c.burst()
	if len(c.arith) != 1 || len(c.walk) != 1 || c.arith[0].wall <= 0 || c.walk[0].cpu <= 0 {
		t.Errorf("one burst recorded %+v and %+v", c.arith, c.walk)
	}
}

func TestProfileGrouping(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2
          2   20000000: 3 2
          1   10000000: 4 5
          4   40000000: 6
Locations
     1: 0x1 M=1 specdsm/internal/core.(*patTable).lookup /x/store.go:310:0 s=301
     2: 0x2 M=1 specdsm/internal/sim.(*Kernel).Run /x/sim.go:453:0 s=427
     3: 0x3 M=1 runtime.asyncPreempt /x/preempt_amd64.s:8:0 s=7
     4: 0x4 M=1 runtime.scanobject /x/mgcmark.go:1:0 s=1
     5: 0x5 M=1 runtime.gcBgMarkWorker /x/mgc.go:1:0 s=1
     6: 0x6 M=1 specdsm/internal/network.(*inflight[go.shape.struct { Kind specdsm/internal/protocol.MsgKind }]).onDeliver /x/network.go:70:0 s=57
             encoding/gob.(*Encoder).Encode /x/encoder.go:1:0 s=1
Mappings
`
	counts := map[string]float64{}
	if err := parseRaw(raw, counts); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 3, "sim": 2, "gc": 1, "network": 4}
	for g, n := range want {
		if counts[g] != n {
			t.Errorf("group %s: %v samples, want %v (all: %v)", g, counts[g], n, counts)
		}
	}
	s, err := shares(counts)
	if err != nil {
		t.Fatal(err)
	}
	if s["network"] != 0.4 {
		t.Errorf("network share %v, want 0.4", s["network"])
	}
}

// alive reports whether process pid still exists.
func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// leftovers lists checkpoint files and run directories under dir.
func leftovers(t *testing.T, dir string) []string {
	var out []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		base := filepath.Base(p)
		if strings.HasPrefix(base, "run-") || strings.HasPrefix(base, "probe-") || strings.Contains(base, ".seeds") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func shardPIDs(r *reaper) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, c := range r.children {
		out = append(out, c.pid())
	}
	return out
}

func TestFleetCleansUpOnSuccessAndFailure(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%t", fail), func(t *testing.T) {
			o := testOptions(t, "fleet", false)
			if fail {
				// A wrong recorded digest for the first round makes the
				// run fail its correctness gate mid-way.
				s := digestStore{dir: filepath.Join(o.workdir, "digests")}
				if err := s.check("fleet", testSeed, "not the fleet's output"); err != nil {
					t.Fatal(err)
				}
			}
			r := &reaper{}
			var pids []int
			done := make(chan struct{})
			go func() {
				// Sample the reaper's children while the run is going.
				defer close(done)
				for i := 0; i < 2000; i++ {
					if p := shardPIDs(r); len(p) >= workers {
						pids = p
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			res, err := run(o, r)
			<-done
			r.stop()
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct == fail {
				t.Fatalf("correct=%t, want %t", res.Correct, !fail)
			}
			if fail && res.Failed != res.Attempted {
				t.Fatalf("failed=%d of %d: a mismatch must fail every job", res.Failed, res.Attempted)
			}
			if len(pids) == 0 {
				t.Fatal("never saw the run's children")
			}
			for _, pid := range pids {
				if alive(pid) {
					t.Errorf("child %d still running after the run", pid)
				}
			}
			if l := leftovers(t, o.workdir); len(l) > 0 {
				t.Errorf("left behind: %v", l)
			}
		})
	}
}

// childrenOf lists the processes whose parent is pid.
func childrenOf(pid int) []int {
	ents, _ := os.ReadDir("/proc")
	var out []int
	for _, e := range ents {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, p)
		}
	}
	return out
}

func TestFleetCleansUpOnInterrupt(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "--workload", "fleet", "--seed", strconv.Itoa(testSeed),
		"--seconds", "60", "--sweepd", sweepdPath, "--workdir", dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the fleet is running rounds: its checkpoint exists.
	var shards []int
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ck, _ := filepath.Glob(filepath.Join(dir, "run-*", "fleet.seeds*"))
		if len(ck) > 0 {
			shards = childrenOf(cmd.Process.Pid)
			if len(shards) >= workers {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(shards) < workers {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("fleet never started (children %v)", shards)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("interrupted benchmark exited with %v, want a non-zero code", err)
	}
	for _, pid := range shards {
		if alive(pid) {
			t.Errorf("sweepd %d still running after the interrupt", pid)
		}
	}
	if l := leftovers(t, dir); len(l) > 0 {
		t.Errorf("left behind: %v", l)
	}
}
