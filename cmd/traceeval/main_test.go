package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"specdsm"
)

func TestParseOptionsConfigs(t *testing.T) {
	o, err := parseOptions([]string{"-in", "t.trace", "-kinds", "MSP, VMSP", "-depths", "2, 4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.In != "t.trace" {
		t.Fatalf("in = %q", o.In)
	}
	want := []specdsm.PredictorConfig{
		{Kind: specdsm.MSP, Depth: 2},
		{Kind: specdsm.MSP, Depth: 4},
		{Kind: specdsm.VMSP, Depth: 2},
		{Kind: specdsm.VMSP, Depth: 4},
	}
	if !reflect.DeepEqual(o.Configs, want) {
		t.Fatalf("configs = %+v, want %+v", o.Configs, want)
	}
}

func TestParseOptionsDefaultsCoverAllKinds(t *testing.T) {
	o, err := parseOptions([]string{"-in", "t.trace"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Configs) != len(specdsm.Kinds()) {
		t.Fatalf("default configs = %+v", o.Configs)
	}
	for i, k := range specdsm.Kinds() {
		if o.Configs[i] != (specdsm.PredictorConfig{Kind: k, Depth: 1}) {
			t.Fatalf("config[%d] = %+v", i, o.Configs[i])
		}
	}
}

func TestParseOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string // expected error substring
	}{
		{"missing in", nil, "-in is required"},
		{"unknown kind", []string{"-in", "t", "-kinds", "Oracle"}, `unknown predictor kind "Oracle" (have Cosmos, MSP, VMSP)`},
		{"empty kind entry", []string{"-in", "t", "-kinds", "MSP,"}, "empty entry in -kinds"},
		{"non-integer depth", []string{"-in", "t", "-depths", "two"}, `bad depth "two"`},
		{"depth zero", []string{"-in", "t", "-depths", "0"}, "depth 0 out of range [1,4]"},
		{"depth too deep", []string{"-in", "t", "-depths", "1,9"}, "depth 9 out of range [1,4]"},
		{"empty depth entry", []string{"-in", "t", "-depths", "1,,2"}, "empty entry in -depths"},
		{"stray positional", []string{"-in", "t", "extra"}, "unexpected argument"},
		{"unknown flag", []string{"-bogus"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

// captureTrace writes a small producer/consumer trace and returns its
// path.
func captureTrace(t *testing.T) string {
	t.Helper()
	wl, err := specdsm.MicroWorkload(specdsm.PatternProducerConsumer,
		specdsm.WorkloadParams{Nodes: 4, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pc.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := specdsm.CaptureTrace(wl, specdsm.MachineOptions{}, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runTable runs traceeval with args on a fresh trace and returns its
// output.
func runTable(t *testing.T, args ...string) string {
	t.Helper()
	o, err := parseOptions(append([]string{"-in", captureTrace(t)}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestRunEndToEnd captures a real trace and evaluates it through run,
// checking the offline table against the online predictor study of the
// same run.
func TestRunEndToEnd(t *testing.T) {
	got := runTable(t, "-kinds", "MSP,VMSP", "-depths", "1,2")
	if !strings.Contains(got, "trace: producer-consumer, 4 nodes") {
		t.Fatalf("missing summary line:\n%s", got)
	}
	// Summary, separator, header, then one row per (kind, depth).
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), got)
	}
	for _, frag := range []string{"MSP", "VMSP", "accuracy", "coverage"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("output missing %q:\n%s", frag, got)
		}
	}
}

// TestBytesPerBlockDepthOneOnly pins the bytes/bl column to the
// paper's Table 4 formulas, which describe a depth-one entry: a deeper
// entry keys more symbols, so its rows print "-" rather than the
// depth-one figure.
func TestBytesPerBlockDepthOneOnly(t *testing.T) {
	got := runTable(t, "-depths", "1,4")
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || (f[1] != "1" && f[1] != "4") {
			continue
		}
		rows++
		bytes := f[len(f)-1]
		if _, err := strconv.ParseFloat(bytes, 64); f[1] == "1" && err != nil {
			t.Errorf("%s at depth 1 prints bytes/bl %q, want a number", f[0], bytes)
		}
		if f[1] == "4" && bytes != "-" {
			t.Errorf("%s at depth 4 prints bytes/bl %q, want -", f[0], bytes)
		}
	}
	if rows != 6 {
		t.Fatalf("got %d predictor rows, want 6:\n%s", rows, got)
	}
}

func TestRunMissingFile(t *testing.T) {
	o, err := parseOptions([]string{"-in", filepath.Join(t.TempDir(), "absent.trace")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Fatal("expected open error for missing trace")
	}
}

// A trace no machine could have recorded is a runtime error (exit
// status 1) naming the offending event, not a panic.
func TestRunRejectsMalformedTrace(t *testing.T) {
	for _, tc := range []struct{ trace, want string }{
		{`{"nodes":5000,"events":[]}`, "node count 5000 out of range"},
		{`{"nodes":4,"events":[{"c":1,"a":0,"t":1,"n":3000}]}`, "event 0: source node 3000 of 4"},
		{`{"nodes":4,"events":[{"c":1,"a":0,"t":1,"n":1},{"c":2,"a":0,"t":200,"n":1}]}`, "event 1: unknown message type 200"},
	} {
		path := filepath.Join(t.TempDir(), "bad.trace")
		if err := os.WriteFile(path, []byte(`{"format":1,"version":1,"trace":`+tc.trace+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := parseOptions([]string{"-in", path}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run on %s: error %v, want one containing %q", tc.trace, err, tc.want)
		}
	}
}
