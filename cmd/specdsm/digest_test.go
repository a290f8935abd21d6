package main

// Stdout pins for the command itself: an app sweep, the same sweep in
// keep-going mode under injected panics, a micro-pattern run and an
// observed run, each run through the built binary at a tiny scale,
// hashed and compared against digests recorded from a known-good build.
// specdsm prints no wall-clock lines, so nothing is masked. A captured
// trace is pinned too: the file's bytes and traceeval's report on it.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

func TestCLIOutputDigests(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "specdsm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sweep := []string{"-app", "em3d,moldyn,ocean", "-mode", "swi", "-scale", "0.25", "-iters", "2", "-nodes", "8", "-parallel", "2"}
	cases := []struct {
		name   string
		args   []string
		digest string
	}{
		{"sweep", sweep, "b783e4e55795009d0be66fcae1e8e1bb9395af4325b1b41c036b79f7b8065707"},
		{"sweep,keep-going", append(sweep, "-keep-going", "-faults", "seed=9,panic=0.3"), "54a4b2b280c0441e74ced47eca4a2a3eebda58be5ba6e8bbf2ebe2e1a0589b63"},
		{"pattern", []string{"-pattern", "producer-consumer", "-mode", "swi", "-nodes", "4"}, "84cce68c584a2e511d28b83131fe569e53ef7001ae2da1836e1bea82abd3aac6"},
		{"observe", []string{"-app", "moldyn", "-mode", "fr", "-observe", "-scale", "0.25", "-iters", "2", "-nodes", "8"}, "e2dad0cd2637a7948377dc1d7c2a509a63e9d2b7d1c51d4a76d04174f743cbf7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(bin, c.args...)
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v", cmd.Args, err)
			}
			sum := sha256.Sum256(out)
			if d := hex.EncodeToString(sum[:]); d != c.digest {
				t.Errorf("digest %s, want %s; output:\n%s", d, c.digest, out)
			}
		})
	}
}

// TestTraceOutDigests pins the bytes of a -trace-out file, cycle stamps
// included, and traceeval's report on it at every depth.
func TestTraceOutDigests(t *testing.T) {
	dir := t.TempDir()
	sd, te := filepath.Join(dir, "specdsm"), filepath.Join(dir, "traceeval")
	for bin, pkg := range map[string]string{sd: ".", te: "../traceeval"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	file := filepath.Join(dir, "em3d.trace")
	run := func(bin string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v", cmd.Args, err)
		}
		return out
	}
	run(sd, "-app", "em3d", "-mode", "swi", "-scale", "0.25", "-iters", "4", "-nodes", "8", "-trace-out", file)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	report := run(te, "-in", file, "-depths", "1,2,4")
	for _, c := range []struct {
		name   string
		data   []byte
		digest string
	}{
		{"trace file", raw, "d2475e243f460198490ca46d15e55f178811ba6fbac9a7c770432450fd8433e9"},
		{"traceeval", report, "99fdd40001be8bbec41ecc15859b40d3a4adf7da42bfa49ee8e7f7ef695d2ae0"},
	} {
		sum := sha256.Sum256(c.data)
		if d := hex.EncodeToString(sum[:]); d != c.digest {
			t.Errorf("%s digest %s, want %s", c.name, d, c.digest)
		}
	}
}
