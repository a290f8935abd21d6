package main

// Stdout pins for the command itself: the default run, every -only
// experiment, the multi-seed aggregate and keep-going runs under
// injected panics, each run through the built binary at a tiny scale.
// The bracketed wall-clock lines are masked (normalize, as `make
// determinism` does), the rest is hashed and compared against digests
// recorded from a known-good build. The library's TestStudyOutputDigests
// pins what the studies compute; these pin what the command prints of
// them: which experiments run, their order, where the timing lines and
// the FAILED manifest go.

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

func TestCLIOutputDigests(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paperrepro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tiny := []string{"-scale", "0.1", "-nodes", "8", "-iters", "2", "-apps", "em3d,moldyn,ocean", "-parallel", "2"}
	panics := []string{"-keep-going", "-faults", "seed=9,panic=0.3"}
	cases := []struct {
		name   string
		args   []string
		digest string
	}{
		{"default", nil, "88d5bfb04071c86476ea0ccf494f8ba7786b697fc97373a5e6e6098eb4a6f0e8"},
		{"table1", []string{"-only", "table1"}, "2bc8da0db14063bd5850bd83c59973241f22fdf29bfea113a8763555f67c6dc7"},
		{"table2", []string{"-only", "table2"}, "8c067310150d008bb26443715542e31b88cbf7fbe4d94e1607cb0fb46284a2c8"},
		{"characterize", []string{"-only", "characterize"}, "b6be40be8cd3760f0a52b836df5a84e0f81fd71b6878202cd3a1e4202bb0f44c"},
		{"fig6", []string{"-only", "fig6"}, "5055b91f21622ff5ad64747fd25ea0adb787037db71bba2651424eebeb4ca3ec"},
		{"rtl", []string{"-only", "rtl"}, "b5be8397bf5f179fca2d3ba01ab0eb0ba1e267b4218d30775d5ce40dc623abea"},
		{"scaling", []string{"-only", "scaling"}, "4e1ec6329584e9050ecdd56336a1907fee450304766fcf4005212a11de1d742b"},
		{"fig7", []string{"-only", "fig7"}, "e5d2f81ac84a9828dfcbf87c7e092edb383d704876adb56aa0253387ded9ebde"},
		{"fig8", []string{"-only", "fig8"}, "1b8c8ea2e98cc16bb13b385cfd6ff8528b99db438dd45cde3a04f0021ada2f6d"},
		{"table3", []string{"-only", "table3"}, "e221c5152406f6d8de75d809c9d4a5b0af556b5e3c2da7d9891d14af20624cb4"},
		{"table4", []string{"-only", "table4"}, "99fd7564b1ce032db48532e04a5d940699d7fbc3c9dfcfe011f1496fb8ad6d0a"},
		{"fig9", []string{"-only", "fig9"}, "c03cbfe637b3128041d2c449379e3b3224563dc56a2e6e483c1a572dff415579"},
		{"table5", []string{"-only", "table5"}, "475750cf1b39175605bba3d15ba8e59e6eff4d05c59241dd7b022a29d02a01d5"},
		{"seeds", []string{"-seeds", "1,2"}, "d38bd7e606521c9a483c7c8cb5536b4074b026694a247bb9c5ca31d340081d0b"},
		{"fig9,seeds", []string{"-only", "fig9", "-seeds", "1,2"}, "b4dc05cc63472aef73445dba4f3db6d07c9e997de91a908cc74ef8ec15d0e046"},
		{"keep-going", panics, "367a1758b3e9aaa2c6fee850f78569dafe8cf480d46b868d4af97c34ca157a08"},
		{"rtl,keep-going", append([]string{"-only", "rtl"}, panics...), "8c12a92169da441760c307d53c23b5575ec221bbb826dbf5c4c7c4c8726cb898"},
		{"fig9,seeds,keep-going", append([]string{"-only", "fig9", "-seeds", "1,2"}, panics...), "9b02cf645d713af1f9b52afbe7d4823e01b5196eff6b6a464c4296e5280f5ad4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(bin, append(append([]string{}, tiny...), c.args...)...)
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v", cmd.Args, err)
			}
			got := normalize(out)
			sum := sha256.Sum256([]byte(got))
			if d := hex.EncodeToString(sum[:]); d != c.digest {
				t.Errorf("digest %s, want %s; output:\n%s", d, c.digest, got)
			}
		})
	}
}
