package specdsm_test

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

	"specdsm"
)

func digestCfg() specdsm.StudyConfig {
	return specdsm.StudyConfig{
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
func digestPanics(cfg specdsm.StudyConfig) specdsm.StudyConfig {
	cfg.KeepGoing = true
	cfg.FaultSpec = "seed=9,panic=0.3"
	return cfg
}

func renderPredictor(cfg specdsm.StudyConfig) (string, error) {
	var rows []specdsm.AppPrediction
	err := specdsm.PredictorStudyStream(cfg, func(_ int, r specdsm.AppPrediction) error {
		rows = append(rows, r)
		return nil
	})
	return specdsm.RenderFigure7(specdsm.Figure7(rows)) +
		specdsm.RenderFigure8(specdsm.Figure8(rows, cfg.Depths)) +
		specdsm.RenderTable3(specdsm.Table3(rows)) +
		specdsm.RenderTable4(specdsm.Table4(rows)), err
}

func renderSpeculation(cfg specdsm.StudyConfig) (string, error) {
	var rows []specdsm.AppSpeculation
	err := specdsm.SpeculationStudyStream(cfg, func(_ int, r specdsm.AppSpeculation) error {
		rows = append(rows, r)
		return nil
	})
	return specdsm.RenderFigure9(specdsm.Figure9(rows)) +
		specdsm.RenderTable5(specdsm.Table5(rows)), err
}

func renderSeeds(cfg specdsm.StudyConfig) (string, error) {
	rows, err := specdsm.SpeculationStudySeeds(cfg, []int64{3, 9})
	return specdsm.RenderFigure9Aggregate(rows), err
}

func renderScaling(cfg specdsm.StudyConfig) (string, error) {
	var rows []specdsm.NodeScaling
	err := specdsm.NodeScalingStudyStream(cfg, []int{4, 8}, func(_ int, r specdsm.NodeScaling) error {
		rows = append(rows, r)
		return nil
	})
	return specdsm.RenderNodeScaling(rows), err
}

func renderRTL(cfg specdsm.StudyConfig) (string, error) {
	var pts []specdsm.RTLPoint
	wp := specdsm.WorkloadParams{Nodes: cfg.Nodes, Iterations: cfg.Iterations, Scale: cfg.Scale, Seed: cfg.Seed}
	err := specdsm.RTLSweepStream(cfg, "em3d", wp, []int{20, 80, 200, 320}, func(_ int, p specdsm.RTLPoint) error {
		pts = append(pts, p)
		return nil
	})
	return specdsm.RenderRTLSweep("em3d", pts), err
}

// renderSweep is the CLI sweep's report stream: every run field, and
// every failure's text, in delivery order.
func renderSweep(cfg specdsm.StudyConfig) (string, error) {
	var b strings.Builder
	opts := specdsm.MachineOptions{
		Mode:      specdsm.ModeSWI,
		Observers: []specdsm.PredictorConfig{{Kind: specdsm.MSP, Depth: 2}},
	}
	var fail func(int, error) error
	if cfg.KeepGoing {
		fail = func(i int, err error) error {
			fmt.Fprintf(&b, "%d FAILED %v\n", i, err)
			return nil
		}
	}
	err := specdsm.RunSweepStream(cfg, opts, func(i int, r *specdsm.RunResult) error {
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
		render func(specdsm.StudyConfig) (string, error)
		cfg    specdsm.StudyConfig
		digest string
	}{
		{"predictor", renderPredictor, digestCfg(), "57de4837bc60541796f2b52a6123017af7fb9af715f1713b854e97377376a239"},
		{"speculation", renderSpeculation, digestCfg(), "1e56b30b6ca01a28c8c6b77cf790eb010fd6a0f7d1373c64afe2bf646499482d"},
		{"seeds", renderSeeds, digestCfg(), "3be331875be383a796f28dcd5d9a87a955c1b5a82e5adf08b322c86babacc7ca"},
		{"scaling", renderScaling, digestCfg(), "fbc18c84249084bd91cc2d6973dba43bb7921090658817194c1a884fc199afa9"},
		{"rtl", renderRTL, digestCfg(), "059e90227629352377ee278ba100936ab93d808550d24c66a038eca10012c048"},
		{"sweep", renderSweep, digestCfg(), "b3bbf58bd769d64d5759c1f71e13be42df6d9a423724a10d7c0bedc74e17bebe"},
		{"predictor,keep-going", renderPredictor, digestPanics(digestCfg()), "193e57812fa7dcfae7e47860190812d92e1ffacb5598fcfbfb15d3d2c2e79089"},
		{"speculation,keep-going", renderSpeculation, digestPanics(digestCfg()), "5709d15e6baa1314535b051fa0cc6324dad925408f8167dc1fac1ed0c144d023"},
		{"seeds,keep-going", renderSeeds, digestPanics(digestCfg()), "e68e758286a6d915e74df022e9daf618835520f03e2c976c5d288a86502ae429"},
		{"rtl,keep-going", renderRTL, digestPanics(digestCfg()), "11b2f033f77f37115a52cd6792f93be8ed9f28f5015d2857012435e52be5bb64"},
		{"sweep,keep-going", renderSweep, digestPanics(digestCfg()), "887853d4e1d04b7ba3c6615154e7951cd02ba7425cdb1438a6549af4c2b36c9a"},
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
