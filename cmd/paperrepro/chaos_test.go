package main

// Chaos harness: checkpointed sweeps are killed mid-run, their
// checkpoint files corrupted, and the -resume reruns — all under
// injected transient faults and delays — must still produce output
// byte-identical to a clean sequential run. Every round is
// derived from its index, so a failure reproduces exactly.
//
// `make chaos` runs this with more rounds (-args -chaos-rounds=N).

import (
	"bytes"
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

var chaosRounds = flag.Int("chaos-rounds", 3, "chaos harness rounds (each is a kill+corrupt+resume cycle)")

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

// buildPaperrepro builds the command into dir and returns its path.
func buildPaperrepro(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "paperrepro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runPaperrepro runs the built command and returns its stdout, stderr
// and exit status.
func runPaperrepro(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &errOut
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	return out, errOut.Bytes(), code
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is slow for -short")
	}
	dir := t.TempDir()
	bin := buildPaperrepro(t, dir)
	run := func(extra ...string) ([]byte, int) {
		out, _, code := runPaperrepro(t, bin, append(append([]string{}, chaosArgs...), extra...)...)
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
			// file the kill left with no frames (resume then restarts
			// from job 0); a bit flip stays in the frame region, never
			// the key: a flipped key byte would read as a different
			// study — a hard error by design, not damage to cut away.
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

			out, code := run(append(faultFlags, "-checkpoint", ck, "-resume")...)
			if code != 0 {
				t.Fatalf("resume exited %d", code)
			}
			if got := normalize(out); got != clean {
				t.Fatalf("round %d: resumed output diverged from clean -parallel 1 run:\n--- clean ---\n%s\n--- chaos ---\n%s",
					round, clean, got)
			}
		})
	}
}

// TestResumePolicy drives -resume through the built command. A frame
// that fails its CRC mid-file is cut away: the rerun reports it in one
// stderr line and prints what a clean run prints. A file that is not a
// checkpoint is refused (exit 1) and left unchanged. A checkpoint of
// another format version, or recorded under other flags, exits 2.
func TestResumePolicy(t *testing.T) {
	dir := t.TempDir()
	bin := buildPaperrepro(t, dir)
	args := []string{"-only", "fig9", "-scale", "0.1", "-apps", "em3d,moldyn", "-parallel", "2"}
	run := func(extra ...string) (string, string, int) {
		out, errOut, code := runPaperrepro(t, bin, append(append([]string{}, args...), extra...)...)
		return normalize(out), string(errOut), code
	}
	ck := filepath.Join(dir, "ck")
	clean, _, code := run("-checkpoint", ck, "-checkpoint-every", "1")
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	saved, err := os.ReadFile(ck + ".speculation")
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last payload byte of the frame that holds the middle
	// of the file (a frame is a 9-byte header, then its payload).
	off := frameStart(saved)
	for next := off; next <= len(saved)/2; next += 9 + int(binary.LittleEndian.Uint32(saved[next:])) {
		off = next
	}
	end := off + 9 + int(binary.LittleEndian.Uint32(saved[off:]))
	if end >= len(saved) {
		t.Fatalf("checkpoint of %d bytes has no frame after the middle one", len(saved))
	}
	damaged := append([]byte(nil), saved...)
	damaged[end-1] ^= 0x40
	if err := os.WriteFile(ck+".speculation", damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := run("-checkpoint", ck, "-resume")
	if code != 0 || out != clean {
		t.Fatalf("resume of a damaged checkpoint exited %d; stdout equals the clean run: %v\n%s", code, out == clean, errOut)
	}
	report := regexp.MustCompile(`^paperrepro: checkpoint .*ck\.speculation: kept \d+ rows, dropped \d+ bytes \(frame \d+: frame CRC mismatch .*\)\n$`)
	if !report.MatchString(errOut) {
		t.Fatalf("stderr is not one drop report line:\n%s", errOut)
	}

	for _, tc := range []struct {
		name  string
		data  []byte
		extra []string
		code  int
	}{
		{"not a checkpoint", []byte("speculation notes\n"), nil, 1},
		{"other version", append(append([]byte(nil), saved[:8]...), append([]byte{2, 0, 0, 0}, saved[12:]...)...), nil, 2},
		{"other flags", saved, []string{"-seed", "2"}, 2},
	} {
		if err := os.WriteFile(ck+".speculation", tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, errOut, code := run(append([]string{"-checkpoint", ck, "-resume"}, tc.extra...)...); code != tc.code {
			t.Errorf("%s: exited %d, want %d\n%s", tc.name, code, tc.code, errOut)
		}
		if after, err := os.ReadFile(ck + ".speculation"); err != nil || !bytes.Equal(after, tc.data) {
			t.Errorf("%s: refused checkpoint changed (%v)", tc.name, err)
		}
	}
}
