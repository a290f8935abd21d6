package main

// Stdout pins for the command itself: an app sweep, the same sweep in
// keep-going mode under injected panics, a micro-pattern run and an
// observed run, each run through the built binary at a tiny scale,
// hashed and compared against digests recorded from a known-good build.
// specdsm prints no wall-clock lines, so nothing is masked.

import (
	"crypto/sha256"
	"encoding/hex"
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
