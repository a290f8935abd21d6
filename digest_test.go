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
	"slices"
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
// without the blank line it puts after each artifact. The text comes in
// parts, a new one starting at each experiment named in cuts, so one
// Run can be pinned artifact group by artifact group.
func renderStudy(name string, seeds []int64, cuts ...string) func(StudyConfig) ([]string, error) {
	return func(cfg StudyConfig) ([]string, error) {
		var parts []string
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
					return nil, err
				}
				ran = true
			}
			if slices.Contains(cuts, e.Name) {
				parts = append(parts, b.String())
				b.Reset()
			}
			if err := e.Render(&b, rows); err != nil {
				return nil, err
			}
		}
		return append(parts, b.String()), nil
	}
}

// renderScaling renders the table's scaling experiment from a study at
// 4 and 8 nodes, an axis the table's default cannot select.
func renderScaling(cfg StudyConfig) ([]string, error) {
	var rows []nodeScaling
	if err := nodeScalingStudyStream(cfg, []int{4, 8}, collect(&rows)); err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, e := range Experiments() {
		if e.Study == scalingStudy {
			if err := e.Render(&b, Rows{rows: rows}); err != nil {
				return nil, err
			}
		}
	}
	return []string{b.String()}, nil
}

// renderSweep is the CLI sweep's report stream: every run field, and
// every failure's text, in delivery order.
func renderSweep(cfg StudyConfig) ([]string, error) {
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
		fmt.Fprintf(&b, "%d %s\n", i, rowText(r))
		return nil
	}, fail)
	return []string{b.String()}, err
}

// rowText prints r with %+v, each predictor's ratios in the positions
// of the fields that once stored them, so the sweep digests pin the
// ratio methods' values as well as the counts.
func rowText(r *RunResult) string {
	type withRatios struct {
		Kind                                PredictorKind
		Depth                               int
		Tracked, Predicted, Correct         uint64
		Accuracy, Coverage, CorrectFraction float64
		Blocks, Entries                     int
		EntriesPerBlock, BytesPerBlock      float64
	}
	ps := make([]withRatios, len(r.Predictors))
	for i, p := range r.Predictors {
		ps[i] = withRatios{p.Kind, p.Depth, p.Tracked, p.Predicted, p.Correct,
			p.Accuracy(), p.Coverage(), p.CorrectFraction(), p.Blocks, p.Entries,
			p.EntriesPerBlock(), p.BytesPerBlock()}
	}
	row := *r
	row.Predictors = nil
	return strings.Replace(fmt.Sprintf("%+v", row), "Predictors:[]", fmt.Sprintf("Predictors:%+v", ps), 1)
}

// TestStudyOutputDigests renders each study (and keep-going runs under
// injected panics, which must both fail and survive somewhere) and
// compares SHA-256 digests of the text against the recorded ones, one
// per part of the study's output. The paper's study renders in two
// parts from one Run: the predictor artifacts (Figures 7-8, Tables 3-4)
// and the speculation artifacts (Figure 9, Table 5).
func TestStudyOutputDigests(t *testing.T) {
	type pin struct{ name, digest string }
	cases := []struct {
		render func(StudyConfig) ([]string, error)
		cfg    StudyConfig
		pins   []pin
	}{
		{renderStudy(speculationStudy, nil, "fig9"), digestCfg(), []pin{
			{"predictor", "57de4837bc60541796f2b52a6123017af7fb9af715f1713b854e97377376a239"},
			{"speculation", "1e56b30b6ca01a28c8c6b77cf790eb010fd6a0f7d1373c64afe2bf646499482d"},
		}},
		{renderStudy(seedsStudy, []int64{3, 9}), digestCfg(), []pin{{"seeds", "3be331875be383a796f28dcd5d9a87a955c1b5a82e5adf08b322c86babacc7ca"}}},
		{renderScaling, digestCfg(), []pin{{"scaling", "fbc18c84249084bd91cc2d6973dba43bb7921090658817194c1a884fc199afa9"}}},
		{renderStudy(rtlStudy, nil), digestCfg(), []pin{{"rtl", "059e90227629352377ee278ba100936ab93d808550d24c66a038eca10012c048"}}},
		{renderSweep, digestCfg(), []pin{{"sweep", "b3bbf58bd769d64d5759c1f71e13be42df6d9a423724a10d7c0bedc74e17bebe"}}},
		{renderStudy(speculationStudy, nil, "fig9"), digestPanics(digestCfg()), []pin{
			{"predictor,keep-going", "5f0ec62617f4899b82335f17a6eb0e7dc141c2e448a7f6acf6b769eb98a5b101"},
			{"speculation,keep-going", "f3307c2a838bedf76b6b85f2e63fc59e699d4976adeb6ce6f904fdc592ebee6a"},
		}},
		{renderStudy(seedsStudy, []int64{3, 9}), digestPanics(digestCfg()), []pin{{"seeds,keep-going", "e68e758286a6d915e74df022e9daf618835520f03e2c976c5d288a86502ae429"}}},
		{renderStudy(rtlStudy, nil), digestPanics(digestCfg()), []pin{{"rtl,keep-going", "456d270162bc748b5c160405d1db3401d7b43ed497be0f5691909019d2345bb5"}}},
		{renderSweep, digestPanics(digestCfg()), []pin{{"sweep,keep-going", "37144470b7c5102393a64e97e1eb307af98d2845756737b6b0c7a6dd0faf83b0"}}},
	}
	for _, c := range cases {
		parts, err := c.render(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.pins[0].name, err)
		}
		if len(parts) != len(c.pins) {
			t.Fatalf("%s: %d parts, want %d", c.pins[0].name, len(parts), len(c.pins))
		}
		for k, p := range c.pins {
			t.Run(p.name, func(t *testing.T) {
				out := parts[k]
				if c.cfg.KeepGoing && !strings.Contains(strings.ToLower(out), "failed") {
					t.Fatalf("keep-going case reported no failure:\n%s", out)
				}
				sum := sha256.Sum256([]byte(out))
				if got := hex.EncodeToString(sum[:]); got != p.digest {
					t.Errorf("digest %s, want %s; output:\n%s", got, p.digest, out)
				}
			})
		}
	}
}
