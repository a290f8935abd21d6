package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"specdsm"
	"specdsm/internal/sweep"
)

// TestExitStatus pins the exit-status mapping and what each case prints.
func TestExitStatus(t *testing.T) {
	km := &sweep.KeyMismatchError{Path: "ck.predictor", Stored: "scale=1|seed=1", Want: "scale=0.5|seed=1"}
	cases := []struct {
		name   string
		err    error
		code   int
		stderr []string // substrings, in order; nil = prints nothing
	}{
		{"success", nil, 0, nil},
		{"help", Usage(flag.ErrHelp), 0, nil},
		{"usage", Usage(errors.New("prog: unexpected argument \"x\"")), 2, []string{"prog: unexpected argument \"x\"\n"}},
		{"key mismatch", fmt.Errorf("predictor study: %w", km), 2, []string{
			"prog: checkpoint ck.predictor was recorded under different parameters:\n",
			"  scale: checkpoint has 1, this run has 0.5\n",
			"fix: rerun with the flags listed above, or remove ck.predictor to start this configuration fresh\n",
		}},
		{"version mismatch", fmt.Errorf("sweep: checkpoint ck.sweep: %w: format version 2", sweep.ErrCheckpointMismatch), 2,
			[]string{"checkpoint ck.sweep: checkpoint does not match this sweep: format version 2\n"}},
		{"runtime error", errors.New("specdsm: simulation failed"), 1, []string{"specdsm: simulation failed\n"}},
	}
	defer func(e func(int), w io.Writer) { exit, stderr = e, w }(exit, stderr)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			code := -1
			exit, stderr = func(c int) { code = c }, &buf
			Exit("prog", c.err)
			if code != c.code {
				t.Errorf("exit status %d, want %d", code, c.code)
			}
			out := buf.String()
			if c.stderr == nil && out != "" {
				t.Errorf("stderr = %q, want nothing", out)
			}
			rest := out
			for _, frag := range c.stderr {
				i := strings.Index(rest, frag)
				if i < 0 {
					t.Fatalf("stderr %q lacks %q (in order)", out, frag)
				}
				rest = rest[i+len(frag):]
			}
		})
	}
}

func TestBindCheck(t *testing.T) {
	parse := func(args ...string) (specdsm.StudyConfig, *Sweep, error) {
		var cfg specdsm.StudyConfig
		fs := flag.NewFlagSet("prog", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s := Bind(fs, &cfg, "sweep")
		if err := fs.Parse(args); err != nil {
			return cfg, s, err
		}
		return cfg, s, s.Check()
	}
	cfg, s, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, specdsm.StudyConfig{}) || s.Given() != "" {
		t.Fatalf("no flags: cfg %+v, given %q", cfg, s.Given())
	}
	var names []string
	s.own.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	if len(names) != 8 {
		t.Fatalf("%d sweep flags bound, want 8: %v", len(names), names)
	}
	cfg, s, err = parse("-parallel", "3", "-remote", "127.0.0.1:1, 127.0.0.1:2", "-checkpoint", "ck", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Parallel != 3 || !cfg.Resume || cfg.CheckpointPath != "ck" || cfg.OnSalvage == nil ||
		!reflect.DeepEqual(cfg.Remote, []string{"127.0.0.1:1", "127.0.0.1:2"}) {
		t.Fatalf("cfg = %+v", cfg)
	}
	if s.Given() == "" {
		t.Fatal("Given reports no sweep flag")
	}

	for _, c := range []struct {
		args []string
		frag string
	}{
		{[]string{"-resume"}, "prog: -resume requires -checkpoint"},
		{[]string{"-checkpoint", "ck", "-checkpoint-every", "-1"}, "prog: -checkpoint-every must not be negative"},
		{[]string{"-remote", "127.0.0.1:1,"}, "prog: empty entry in -remote"},
		{[]string{"-remote", "nonsense"}, "want host:port"},
		{[]string{"-retries", "-1"}, "negative retry budget"},
		{[]string{"-faults", "frobnicate=1"}, "fault"},
	} {
		if _, _, err := parse(c.args...); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.frag)
		}
	}
}
