package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specdsm"
	"specdsm/internal/remote"
)

// reaper owns every child process and scratch path of the benchmark.
// stop terminates the children, waits for each to end, and removes the
// paths; it runs on normal exit, on failure and on interrupt alike.
type reaper struct {
	mu          sync.Mutex
	children    []*child
	paths       []string
	interrupted atomic.Bool
}

// errInterrupted ends a run that was interrupted by a signal.
var errInterrupted = errors.New("perfbench: interrupted")

// interrupt stops every child and makes check fail, so the run returns
// at its next check instead of writing more scratch files.
func (r *reaper) interrupt() {
	r.interrupted.Store(true)
	r.mu.Lock()
	children := r.children
	r.children = nil
	r.mu.Unlock()
	for _, c := range children {
		terminate(c)
	}
}

// check returns errInterrupted once interrupt has run.
func (r *reaper) check() error {
	if r.interrupted.Load() {
		return errInterrupted
	}
	return nil
}

// child is a started process; done closes once it has been reaped.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (r *reaper) removeLater(path string) {
	r.mu.Lock()
	r.paths = append(r.paths, path)
	r.mu.Unlock()
}

// stop sends SIGTERM to every child, escalates to SIGKILL after a
// grace period, waits until each has ended, then removes the scratch
// paths. Safe to call more than once and from several goroutines.
func (r *reaper) stop() {
	r.mu.Lock()
	children, paths := r.children, r.paths
	r.children, r.paths = nil, nil
	r.mu.Unlock()
	for _, c := range children {
		terminate(c)
	}
	for _, p := range paths {
		_ = os.RemoveAll(p) // best effort: nothing to report it to on exit
	}
}

// terminate stops one child and waits for it to be reaped.
func terminate(c *child) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-c.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = c.cmd.Process.Kill()
	<-c.done
}

// start launches argv with stdout on a pipe and waits until the child
// prints a line starting with ready, returning the rest of that line.
// The child dies with the benchmark (Pdeathsig) even if the benchmark
// is killed outright; stderr is discarded.
func (r *reaper) start(argv []string, ready string, timeout time.Duration) (*child, string, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, "", fmt.Errorf("perfbench: %w", err)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = pw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, "", fmt.Errorf("perfbench: starting %s: %w", argv[0], err)
	}
	pw.Close()
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: children are stopped by signal
		close(c.done)
	}()
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()

	lines := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			if !sent && strings.HasPrefix(sc.Text(), ready) {
				lines <- strings.TrimPrefix(sc.Text(), ready)
				sent = true
			}
		}
		if !sent {
			close(lines)
		}
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			return c, "", fmt.Errorf("perfbench: %s exited before printing %q", argv[0], ready)
		}
		return c, line, nil
	case <-time.After(timeout):
		return c, "", fmt.Errorf("perfbench: %s did not print %q within %v", argv[0], ready, timeout)
	}
}

// shard is one running shard worker.
type shard struct {
	*child
	addr string
}

// startShards launches n shard workers from argv and waits until each
// listens.
func (r *reaper) startShards(argv func(k int) []string, n int) ([]shard, error) {
	out := make([]shard, 0, n)
	for k := 0; k < n; k++ {
		c, addr, err := r.start(argv(k), "sweepd listening on ", 30*time.Second)
		if err != nil {
			return nil, err
		}
		out = append(out, shard{child: c, addr: strings.TrimSpace(addr)})
	}
	return out, nil
}

func shardAddrs(ss []shard) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.addr
	}
	return out
}

// stopShards terminates the given shards now (the reaper skips them
// later: terminate on a reaped child returns at once).
func stopShards(ss []shard) {
	for _, s := range ss {
		terminate(s.child)
	}
}

// workerStats is what a profiling shard worker reports at exit.
type workerStats struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	BusyCPU    float64 `json:"busy_cpu_s"`
}

// serveWorker is a shard worker for the traced fleet run. It serves
// exactly as cmd/sweepd does — remote.Server with specdsm's remote
// runner on a free loopback port, logging to stderr — and additionally
// records a CPU profile and its runtime statistics, written when
// SIGTERM ends it.
func serveWorker(profile, statsPath string) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	f, err := os.Create(profile)
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: %w", err)
	}
	fmt.Printf("sweepd listening on %s\n", lis.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &remote.Server{
		NewRunner: specdsm.NewRemoteRunner,
		Logf:      log.New(os.Stderr, "sweepd: ", log.LstdFlags).Printf,
	}
	serr := srv.Serve(ctx, lis)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && serr == nil {
		serr = fmt.Errorf("perfbench: %w", err)
	}
	rt := readRuntime()
	b, err := json.Marshal(workerStats{AllocBytes: rt.allocBytes, GCCPU: rt.gcCPU, BusyCPU: rt.busyCPU})
	if err != nil {
		return err
	}
	if err := os.WriteFile(statsPath, b, 0o644); err != nil && serr == nil {
		serr = fmt.Errorf("perfbench: %w", err)
	}
	return serr
}

// runtimeSample is a reading of the process's runtime counters.
type runtimeSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	busyCPU    float64 // cumulative non-idle CPU seconds the runtime accounts
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	runtime.GC() // the CPU classes are a snapshot taken at the last GC
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}
