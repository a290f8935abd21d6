package specdsm

// Output pins: every study rendered at a tiny scale, hashed, and compared
// against digests recorded from a known-good build. The goldens in
// golden_test.go pin single runs; these pin what the studies do with
// them — job order, row assembly, keep-going FAILED rows and their
// "<mode>: " prefixes — so a change to how studies are driven cannot
// reorder or regroup output without failing here. A digest changes only
// when simulated output does, which is always a deliberate act.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func digestCfg() StudyConfig {
	return StudyConfig{
		Apps:       []string{"em3d", "moldyn", "ocean"},
		Nodes:      8,
		Iterations: 3,
		Scale:      0.25,
		Seed:       3,
		Parallel:   2,
	}
}

// digestPanics arms keep-going under injected job panics: a mix of
// FAILED and surviving rows (the digest cases assert both occur).
func digestPanics(cfg StudyConfig) StudyConfig {
	cfg.KeepGoing = true
	cfg.FaultSpec = "seed=9,panic=0.3"
	return cfg
}

// renderStudy renders every experiment on the named study, in table
// order, from one Run of it: what a paperrepro run prints of the study,
// without the blank line it puts after each artifact.
func renderStudy(name string, seeds ...int64) func(StudyConfig) (string, error) {
	return func(cfg StudyConfig) (string, error) {
		var b strings.Builder
		var rows Rows
		ran := false
		for _, e := range Experiments() {
			if e.Study != name {
				continue
			}
			if !ran {
				var err error
				if rows, err = e.Run(cfg, seeds); err != nil {
					return "", err
				}
				ran = true
			}
			if err := e.Render(&b, rows); err != nil {
				return "", err
			}
		}
		return b.String(), nil
	}
}

// renderScaling renders the table's scaling experiment from a study at
// 4 and 8 nodes, an axis the table's default cannot select.
func renderScaling(cfg StudyConfig) (string, error) {
	var rows []nodeScaling
	if err := nodeScalingStudyStream(cfg, []int{4, 8}, collect(&rows)); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, e := range Experiments() {
		if e.Study == scalingStudy {
			if err := e.Render(&b, Rows{rows: rows}); err != nil {
				return "", err
			}
		}
	}
	return b.String(), nil
}

// renderSweep is the CLI sweep's report stream: every run field, and
// every failure's text, in delivery order.
func renderSweep(cfg StudyConfig) (string, error) {
	var b strings.Builder
	opts := MachineOptions{
		Mode:      ModeSWI,
		Observers: []PredictorConfig{{Kind: MSP, Depth: 2}},
	}
	var fail func(int, error) error
	if cfg.KeepGoing {
		fail = func(i int, err error) error {
			fmt.Fprintf(&b, "%d FAILED %v\n", i, err)
			return nil
		}
	}
	err := RunSweepStream(cfg, opts, func(i int, r *RunResult) error {
		fmt.Fprintf(&b, "%d %+v\n", i, *r)
		return nil
	}, fail)
	return b.String(), err
}

// TestStudyOutputDigests renders each study (and keep-going runs under
// injected panics, which must both fail and survive somewhere) and
// compares SHA-256 digests of the text against the recorded ones.
func TestStudyOutputDigests(t *testing.T) {
	cases := []struct {
		name   string
		render func(StudyConfig) (string, error)
		cfg    StudyConfig
		digest string
	}{
		{"predictor", renderStudy(predictorStudy), digestCfg(), "57de4837bc60541796f2b52a6123017af7fb9af715f1713b854e97377376a239"},
		{"speculation", renderStudy(speculationStudy), digestCfg(), "1e56b30b6ca01a28c8c6b77cf790eb010fd6a0f7d1373c64afe2bf646499482d"},
		{"seeds", renderStudy(seedsStudy, 3, 9), digestCfg(), "3be331875be383a796f28dcd5d9a87a955c1b5a82e5adf08b322c86babacc7ca"},
		{"scaling", renderScaling, digestCfg(), "fbc18c84249084bd91cc2d6973dba43bb7921090658817194c1a884fc199afa9"},
		{"rtl", renderStudy(rtlStudy), digestCfg(), "059e90227629352377ee278ba100936ab93d808550d24c66a038eca10012c048"},
		{"sweep", renderSweep, digestCfg(), "b3bbf58bd769d64d5759c1f71e13be42df6d9a423724a10d7c0bedc74e17bebe"},
		{"predictor,keep-going", renderStudy(predictorStudy), digestPanics(digestCfg()), "60ed2af66e20de644ccdfb0a2d79041c957ba23b84abd9bc3c34b25b9675ad28"},
		{"speculation,keep-going", renderStudy(speculationStudy), digestPanics(digestCfg()), "f3307c2a838bedf76b6b85f2e63fc59e699d4976adeb6ce6f904fdc592ebee6a"},
		{"seeds,keep-going", renderStudy(seedsStudy, 3, 9), digestPanics(digestCfg()), "e68e758286a6d915e74df022e9daf618835520f03e2c976c5d288a86502ae429"},
		{"rtl,keep-going", renderStudy(rtlStudy), digestPanics(digestCfg()), "456d270162bc748b5c160405d1db3401d7b43ed497be0f5691909019d2345bb5"},
		{"sweep,keep-going", renderSweep, digestPanics(digestCfg()), "37144470b7c5102393a64e97e1eb307af98d2845756737b6b0c7a6dd0faf83b0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.render(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.KeepGoing && !strings.Contains(strings.ToLower(out), "failed") {
				t.Fatalf("keep-going case reported no failure:\n%s", out)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("digest %s, want %s; output:\n%s", got, c.digest, out)
			}
		})
	}
}
