package main

// Distributed chaos harness: a real three-worker sweepd fleet serves a
// fig9 sweep while one worker is SIGKILLed mid-batch and another
// injects connection faults (drops, short reads, delays) on every
// dispatcher link. The dispatcher must re-run the lost work on the
// survivors and still produce output byte-identical to a clean local
// -parallel 1 run — the determinism contract under real process death
// and a real torn transport, not just in-memory simulations of them.
//
// `make chaos-remote` runs this leg on every gate.

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// sweepdWorker is one spawned sweepd process with its scraped listen
// address and a channel that closes when the worker first logs that it
// is executing a batch — the kill-timing hook.
type sweepdWorker struct {
	cmd      *exec.Cmd
	addr     string
	execSeen chan struct{}
	once     sync.Once
}

// startSweepd launches a sweepd on a free loopback port, scrapes the
// "sweepd listening on ADDR" stdout line, and watches stderr for the
// first per-batch execution log line.
func startSweepd(t *testing.T, bin string, extra ...string) *sweepdWorker {
	t.Helper()
	w := &sweepdWorker{execSeen: make(chan struct{})}
	w.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, extra...)...)
	// The worker dies with the test binary even if that is killed
	// outright (a -timeout or a panic), so no sweepd is orphaned.
	w.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := w.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cmd.Start(); err != nil {
		t.Fatalf("start sweepd: %v", err)
	}
	t.Cleanup(func() {
		w.cmd.Process.Kill()
		w.cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "sweepd listening on "); ok {
				addrCh <- a
				return
			}
		}
	}()
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "exec batch") {
				w.once.Do(func() { close(w.execSeen) })
			}
		}
	}()
	select {
	case w.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("sweepd did not print its listen address")
	}
	return w
}

func TestChaosRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote chaos harness is slow for -short")
	}
	dir := t.TempDir()
	paperreproBin := filepath.Join(dir, "paperrepro")
	sweepdBin := filepath.Join(dir, "sweepd")
	for pkg, bin := range map[string]string{".": paperreproBin, "../sweepd": sweepdBin} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	run := func(extra ...string) (stdout []byte, stderr string, code int) {
		cmd := exec.Command(paperreproBin, append(append([]string{}, chaosArgs...), extra...)...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", cmd.Args, err)
		}
		return out, errBuf.String(), code
	}

	cleanOut, _, code := run("-parallel", "1")
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	clean := normalize(cleanOut)

	// Three-worker fleet: one healthy, one injecting connection faults
	// on every dispatcher link, one SIGKILLed the moment it starts
	// executing its first batch (mid-simulation, so its leased jobs die
	// with it and must be re-dispatched to the survivors).
	victim := startSweepd(t, sweepdBin)
	faulty := startSweepd(t, sweepdBin, "-faults", "seed=7,conndrop=0.02,connshort=0.3,conndelay=0.2")
	healthy := startSweepd(t, sweepdBin)
	go func() {
		<-victim.execSeen
		victim.cmd.Process.Kill()
	}()

	remoteOut, remoteErr, code := run("-progress", "-remote",
		victim.addr+","+faulty.addr+","+healthy.addr)
	if code != 0 {
		t.Fatalf("remote run exited %d\nstderr:\n%s", code, remoteErr)
	}
	select {
	case <-victim.execSeen:
		// The victim really was executing sweep batches before the kill;
		// the dispatcher survived losing it.
	default:
		t.Fatalf("victim worker never executed a batch — the kill tested nothing\nstderr:\n%s", remoteErr)
	}
	if got := normalize(remoteOut); got != clean {
		t.Fatalf("remote chaos output diverged from clean -parallel 1 run:\n--- clean ---\n%s\n--- chaos ---\n%s\n--- dispatcher stderr ---\n%s",
			clean, got, remoteErr)
	}
}
