package main

// Chaos harness: checkpointed sweeps are killed mid-run, their
// checkpoint files corrupted, and the salvage-resumed reruns — all
// under injected transient faults and delays — must still produce
// output byte-identical to a clean sequential run. Every round is
// derived from its index, so a failure reproduces exactly.
//
// `make chaos` runs this with more rounds (-args -chaos-rounds=N).

import (
	"encoding/binary"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
)

var chaosRounds = flag.Int("chaos-rounds", 3, "chaos harness rounds (each is a kill+corrupt+salvage cycle)")

// timingLines matches the bracketed wall-clock lines — the one
// intentionally nondeterministic part of paperrepro output.
var timingLines = regexp.MustCompile(`\[[^]]*: [0-9][^]]*\]`)

func normalize(out []byte) string {
	return timingLines.ReplaceAllString(string(out), "[time]")
}

// chaosArgs is the study every round reproduces: small enough to rerun
// per round, big enough (9 simulations) that kill points land mid-sweep.
var chaosArgs = []string{"-only", "fig9", "-scale", "0.1", "-apps", "em3d,moldyn,appbt"}

// frameStart returns where a checkpoint file's frames begin: after the
// 16-byte fixed header (magic, version, key length) and the key.
func frameStart(data []byte) int {
	if len(data) < 16 {
		return len(data)
	}
	return 16 + int(binary.LittleEndian.Uint32(data[12:16]))
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is slow for -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "paperrepro")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	run := func(extra ...string) ([]byte, int) {
		cmd := exec.Command(bin, append(append([]string{}, chaosArgs...), extra...)...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", cmd.Args, err)
		}
		return out, code
	}

	cleanOut, code := run("-parallel", "1")
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	clean := normalize(cleanOut)

	for round := 0; round < *chaosRounds; round++ {
		round := round
		t.Run(strconv.Itoa(round), func(t *testing.T) {
			ck := filepath.Join(dir, "ck"+strconv.Itoa(round))
			// Every round's schedule is a pure function of its index:
			// kill point inside the 9-job sweep, fault seed, and which
			// corruption (truncate vs bit flip) hits the checkpoint.
			kill := 2 + (round*5)%7 // in [2, 8]
			spec := "seed=" + strconv.Itoa(round+1) + ",transient=0.3,delay=0.4,delaymax=8"
			faultFlags := []string{"-retries", "8", "-faults", spec, "-parallel", "4"}

			_, code := run(append(faultFlags,
				"-checkpoint", ck, "-checkpoint-every", "2", "-crash-after", strconv.Itoa(kill))...)
			if code != 3 {
				t.Fatalf("killed run exited %d, want 3 (crash-after %d)", code, kill)
			}

			// Corrupt the file. Truncation may cut into the header of a
			// file the kill left with no frames (salvage then restarts
			// from job 0); a bit flip stays in the frame region, never
			// the key: a flipped key byte would read as a different
			// study — a hard error by design, not salvageable damage.
			// The file can legitimately be missing when the kill landed
			// before the first flush.
			if data, err := os.ReadFile(ck + ".speculation"); err == nil && len(data) > 64 {
				if round%2 == 0 {
					data = data[:len(data)-1-(round*3)%16]
				} else if off := len(data) - 17; off >= frameStart(data) {
					data[off] ^= 0x40
				}
				if err := os.WriteFile(ck+".speculation", data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			out, code := run(append(faultFlags, "-checkpoint", ck, "-resume-salvage")...)
			if code != 0 {
				t.Fatalf("salvage-resume exited %d", code)
			}
			if got := normalize(out); got != clean {
				t.Fatalf("round %d: salvage-resumed output diverged from clean -parallel 1 run:\n--- clean ---\n%s\n--- chaos ---\n%s",
					round, clean, got)
			}
		})
	}
}
