// Package cli is the command-line front end paperrepro and specdsm
// share: the eight sweep flags bound straight into a specdsm.StudyConfig
// and checked once, the comma-list splitter, and the exit-status
// mapping.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specdsm"
	"specdsm/internal/sweep"
)

// Sweep is the set of sweep flags bound to one command's FlagSet.
type Sweep struct {
	fs     *flag.FlagSet
	own    *flag.FlagSet // the sweep flags alone, to tell them apart
	cfg    *specdsm.StudyConfig
	remote string
}

// Bind declares the sweep flags on fs, writing straight into cfg.
// checkpointFiles are the study names a -checkpoint PATH writes
// PATH.<name> for, listed in the flag's help.
func Bind(fs *flag.FlagSet, cfg *specdsm.StudyConfig, checkpointFiles ...string) *Sweep {
	s := &Sweep{fs: fs, own: flag.NewFlagSet(fs.Name(), flag.ContinueOnError), cfg: cfg}
	f := s.own
	f.IntVar(&cfg.Parallel, "parallel", 0, "concurrent simulations (0 = one per CPU; 1 = sequential); output is the same for every value")
	f.IntVar(&cfg.Retries, "retries", 0, "retry budget per simulation for transient failures (0 = fail fast)")
	f.StringVar(&cfg.FaultSpec, "faults", "", "fault-injection spec for robustness testing, e.g. seed=7,transient=0.2,panic=0.01,delay=0.5 (see internal/fault)")
	f.BoolVar(&cfg.KeepGoing, "keep-going", false, "report fatally failed simulations as FAILED and continue instead of aborting")
	f.StringVar(&cfg.CheckpointPath, "checkpoint", "", "persist completed simulations to files under this base path (PATH."+
		strings.Join(checkpointFiles, ", PATH.")+")")
	f.BoolVar(&cfg.Resume, "resume", false, "resume from the -checkpoint files an interrupted or damaged run left, keeping each file's longest valid prefix")
	f.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "flush the checkpoint every N completed simulations (0 = default cadence)")
	f.StringVar(&s.remote, "remote", "", "comma-separated sweepd workers (host:port) to fan simulations out to; output stays byte-identical to -parallel 1")
	f.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, fl.Usage) })
	return s
}

// Given returns the name of a sweep flag set on the command line, or ""
// when none is.
func (s *Sweep) Given() string {
	var name string
	s.fs.Visit(func(fl *flag.Flag) {
		if name == "" && s.own.Lookup(fl.Name) != nil {
			name = fl.Name
		}
	})
	return name
}

// Check completes the sweep flags after parsing: the flag-named checks
// run, -remote is split, what -resume drops from a checkpoint is
// reported on the FlagSet's output, and the whole config (cfg.Apps
// included) is validated.
func (s *Sweep) Check() error {
	c, prog := s.cfg, s.fs.Name()
	switch {
	case c.Resume && c.CheckpointPath == "":
		return fmt.Errorf("%s: -resume requires -checkpoint", prog)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("%s: -checkpoint-every must not be negative, got %d", prog, c.CheckpointEvery)
	}
	if s.remote != "" {
		list, err := SplitList(prog, "-remote", s.remote)
		if err != nil {
			return err
		}
		c.Remote = list
	}
	if c.Resume {
		out, path := s.fs.Output(), c.CheckpointPath
		c.OnSalvage = func(study string, rep sweep.SalvageReport) {
			fmt.Fprintf(out, "%s: checkpoint %s.%s: kept %d rows, dropped %d bytes (%s)\n",
				prog, path, study, rep.Rows, rep.DroppedBytes, rep.Reason)
		}
	}
	return c.Validate()
}

// SplitList splits a comma-separated flag value, rejecting empty
// entries so a stray comma fails loudly instead of producing a
// confusing downstream error (or silently selecting a default).
func SplitList(prog, flagName, csv string) ([]string, error) {
	var out []string
	for _, v := range strings.Split(csv, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("%s: empty entry in %s %q", prog, flagName, csv)
		}
		out = append(out, v)
	}
	return out, nil
}

// usageError marks a wrong invocation.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Usage marks err, a parse or flag-check failure, as a wrong invocation
// (exit status 2). A nil err stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return usageError{err}
}

// exit and stderr are the process seams Exit uses; tests replace them.
var (
	exit             = os.Exit
	stderr io.Writer = os.Stderr
)

// Exit ends the process with the status err calls for: 0 for nil and
// flag.ErrHelp (the flag package has printed the usage), 2 for a wrong
// invocation — a Usage error or a checkpoint that does not match the
// run — and 1 for every other failure. Errors are printed to stderr; a
// checkpoint recorded under other parameters is explained as the
// differing parameters and the fix. Not every parameter has a flag (the
// observers a study attaches, say), so removing the checkpoint is the
// fix that always applies.
func Exit(prog string, err error) {
	var km *sweep.KeyMismatchError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		exit(0)
	case errors.As(err, &km):
		fmt.Fprintf(stderr, "%s: checkpoint %s was recorded under different parameters:\n", prog, km.Path)
		for _, line := range km.Diff() {
			fmt.Fprintf(stderr, "  %s\n", line)
		}
		fmt.Fprintf(stderr, "fix: remove %s to start this configuration fresh, or, if flags set the parameters listed above, rerun with the checkpoint's values to resume it\n", km.Path)
		exit(2)
	case errors.As(err, new(usageError)), errors.Is(err, sweep.ErrCheckpointMismatch):
		// Any other mismatch — a checkpoint of another format version,
		// more rows than the sweep has jobs — is a wrong invocation
		// too, not a runtime failure.
		fmt.Fprintln(stderr, err)
		exit(2)
	default:
		fmt.Fprintln(stderr, err)
		exit(1)
	}
}
