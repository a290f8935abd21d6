package specdsm

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"specdsm/internal/fault"
	"specdsm/internal/machine"
	"specdsm/internal/remote"
	"specdsm/internal/sweep"
)

// studySpec is the one description of a study: a grid of simulation
// cells, each one application run on one DSM configuration. Everything
// a sweepd worker needs to rebuild any job of the study is here, and —
// rendered field by field by key — so is the identity its checkpoint is
// recorded under. It carries only value data (no callbacks, no
// checkpoint state): execution knobs like Parallel, Remote, and the
// checkpoint fields stay out because they cannot change any job's
// result.
//
// The axes are Seeds, Apps, NodeCounts, Flights and Modes. Job j
// decodes mixed-radix over them in that order — seeds outermost, modes
// innermost — and an empty axis has one point: the value already in WP
// or Opts. A cell is the len(Modes) consecutive runs (one when Modes is
// empty) that differ only in mode. On a Modes axis, Opts.Observers ride
// only the cell's Base-mode run: passive predictors measure the Base-DSM
// message stream, and the FR and SWI runs of the cell carry none.
type studySpec struct {
	// Study names the checkpoint (<CheckpointPath>.<Study>) and prefixes
	// its key.
	Study string `key:"-"`
	// Base is the resume offset: job index j on the wire means absolute
	// study index Base+j. Shipping it keeps the worker's retry/injector
	// schedule keyed on the same relative indices the in-process workers
	// use after a checkpoint replay.
	Base int `key:"-"`

	Seeds      []int64
	Apps       []string
	NodeCounts []int
	Flights    []int
	Modes      []Mode

	// WP and Opts are every run's workload and machine configuration
	// before the axes overwrite their own fields.
	WP        WorkloadParams
	Opts      MachineOptions
	Retries   int
	FaultSpec string
}

// spec lifts the config's job-identity values into the named study's
// spec, with opts as the base machine configuration and no axis but
// Apps. Call on a config that already has defaults applied, so both
// ends of a remote sweep resolve to the same concrete values.
func (c StudyConfig) spec(study string, opts MachineOptions) studySpec {
	return studySpec{
		Study:     study,
		Apps:      c.Apps,
		WP:        c.workloadParams(),
		Opts:      opts,
		Retries:   c.Retries,
		FaultSpec: c.FaultSpec,
	}
}

// size returns the study's job count and the runs per cell.
func (rs studySpec) size() (jobs, cell int) {
	cell = max(1, len(rs.Modes))
	jobs = cell * max(1, len(rs.Seeds)) * max(1, len(rs.Apps)) *
		max(1, len(rs.NodeCounts)) * max(1, len(rs.Flights))
	return jobs, cell
}

// job is the study's only job function, shared by the in-process
// workers and the shards: job j's configuration is decoded from the
// axes, innermost first, and simulated once.
func (rs studySpec) job(_ context.Context, arena *machine.Arena, j int) (*RunResult, error) {
	wp, opts := rs.WP, rs.Opts
	var app string
	digit(&j, rs.Modes, &opts.Mode)
	if len(rs.Modes) > 0 && opts.Mode != ModeBase {
		opts.Observers = nil
	}
	digit(&j, rs.Flights, &opts.NetworkFlight)
	digit(&j, rs.NodeCounts, &wp.Nodes)
	digit(&j, rs.Apps, &app)
	digit(&j, rs.Seeds, &wp.Seed)
	// Workload generation is served by the process-wide cache, so the
	// runs of a cell share one program set whichever workers claim them.
	w, err := AppWorkload(app, wp)
	if err != nil {
		return nil, err
	}
	return simulate(arena.Run, w, opts)
}

// digit peels the lowest mixed-radix digit of *j off an axis into *v;
// an empty axis leaves both alone.
func digit[T any](j *int, axis []T, v *T) {
	if len(axis) > 0 {
		*v = axis[*j%len(axis)]
		*j /= len(axis)
	}
}

// key renders the study's checkpoint identity: the study name, every
// non-zero spec field as a "|name=value" segment (nested structs
// flatten to parent.field, pointers are followed, so the key describes
// values, never addresses), keep-going, and the job count — the
// segments KeyMismatchError.Diff compares.
func (rs studySpec) key(keepGoing bool, jobs int) string {
	var b strings.Builder
	b.WriteString("specdsm/" + rs.Study)
	writeKeyFields(&b, "", reflect.ValueOf(rs))
	fmt.Fprintf(&b, "|keepgoing=%t|jobs=%d", keepGoing, jobs)
	return b.String()
}

func writeKeyFields(b *strings.Builder, prefix string, v reflect.Value) {
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		if f.Tag.Get("key") == "-" || fv.IsZero() {
			continue
		}
		name := prefix + strings.ToLower(f.Name)
		if fv.Kind() == reflect.Pointer {
			fv = fv.Elem()
		}
		switch v := fv.Interface().(type) {
		case []string:
			fmt.Fprintf(b, "|%s=%s", name, strings.Join(v, ","))
		default:
			if fv.Kind() == reflect.Struct {
				writeKeyFields(b, name+".", fv)
			} else {
				fmt.Fprintf(b, "|%s=%v", name, v)
			}
		}
	}
}

// pool is the spec's job-settling policy — retry budget, backoff seed,
// fault injector — on a pool of the given width: identical on every
// executor, so a job settles the same way wherever it runs.
func (rs studySpec) pool(workers int) (*sweep.Pool, error) {
	p := sweep.New(workers)
	p.Retries = rs.Retries
	p.RetrySeed = uint64(rs.WP.Seed)
	if rs.FaultSpec != "" {
		inj, err := fault.ParseSpec(rs.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("specdsm: %w", err)
		}
		p.Inject = inj
	}
	return p, nil
}

func (rs studySpec) encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rs); err != nil {
		return nil, fmt.Errorf("specdsm: encoding study spec: %w", err)
	}
	return buf.Bytes(), nil
}

// NewRemoteRunner builds a shard-side job executor from a dispatcher's
// study spec — the remote.Server.NewRunner for a sweepd worker. The
// returned runner owns one simulation arena (the server builds a runner
// per connection, so the arena needs no locking) and settles each job
// under the same retry budget, fault-injection schedule, and backoff
// the in-process pool would apply, which is what makes a job's outcome
// — row bytes or failure text — independent of where it executes.
//
// An unparsable spec is a construction error; the server refuses the
// connection so the dispatcher abandons this worker instead of retrying
// a spec that cannot get better.
func NewRemoteRunner(spec []byte) (remote.Runner, error) {
	var rs studySpec
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&rs); err != nil {
		return nil, fmt.Errorf("specdsm: decoding study spec: %w", err)
	}
	p, err := rs.pool(1)
	if err != nil {
		return nil, err
	}
	arena := machine.NewArena()
	return func(ctx context.Context, j int) ([]byte, error) {
		r, err := sweep.RunOne(ctx, p, arena, rs.Base, j, rs.job)
		if err != nil {
			return nil, err
		}
		return r.AppendBinary(nil)
	}, nil
}

// streamStudy is the execution backend every study driver fans out on:
// one sweep.Run that replays the study's checkpoint, runs the remaining
// jobs on in-process workers and — when cfg.Remote names shard workers
// — on those shards, and delivers each cell to emit strictly in index
// order, so a study cannot tell how (or where) its jobs ran. With
// shards the in-process side is a single worker: the degradation floor
// for a dead fleet and poison jobs.
//
// emit receives cell i's runs in mode order; runs is reused once emit
// returns. Under cfg.KeepGoing a fatal job failure occupies its slot as
// a nil run and its text joins failed ("; "-separated, each prefixed
// "<mode>: " when the cell has several runs); without it the first
// failure aborts the study.
func streamStudy(cfg StudyConfig, rs studySpec, emit func(i int, runs []*RunResult, failed string) error) error {
	n, cell := rs.size()
	ck, err := cfg.checkpoint(rs, n)
	if err != nil {
		return err
	}
	w := &cellWindow{cell: cell, modes: rs.Modes, runs: make([]*RunResult, 0, cell), emit: emit}
	o := sweep.Options{Checkpoint: ck}
	if cfg.KeepGoing {
		o.Fail = func(j int, err error) error { return w.add(j, nil, err.Error()) }
	}
	if ck != nil {
		rs.Base = ck.Rows()
	}
	if len(cfg.Remote) > 0 {
		cfg.Parallel = 1
	}
	pool, err := cfg.pool(rs, n-rs.Base)
	if err != nil {
		return err
	}
	if len(cfg.Remote) > 0 {
		spec, err := rs.encode()
		if err != nil {
			return err
		}
		d := &remote.Dispatcher{
			Hosts:  cfg.Remote,
			Spec:   spec,
			Seed:   uint64(cfg.Seed),
			Inject: pool.Inject,
			Logf:   cfg.RemoteLogf,
		}
		o.Transports = d.Transports()
	}
	return sweep.Run(context.Background(), pool, n, o, machine.NewArena, rs.job,
		func(j int, r *RunResult) error { return w.add(j, r, "") })
}

// cellWindow assembles the runs of the cell being delivered: every cell
// consecutive deliveries complete one.
type cellWindow struct {
	cell  int
	modes []Mode
	runs  []*RunResult
	fails []string
	emit  func(i int, runs []*RunResult, failed string) error
}

// add files job j's run, or its keep-going failure text, and emits the
// cell once it is complete.
func (w *cellWindow) add(j int, r *RunResult, errText string) error {
	if errText != "" {
		if w.cell > 1 {
			errText = fmt.Sprintf("%s: %s", w.modes[j%w.cell], errText)
		}
		w.fails = append(w.fails, errText)
	}
	if w.runs = append(w.runs, r); len(w.runs) < w.cell {
		return nil
	}
	failed := strings.Join(w.fails, "; ")
	full := w.runs
	w.runs, w.fails = w.runs[:0], w.fails[:0]
	return w.emit(j/w.cell, full, failed)
}

// RunSweepStream runs every cfg.Apps workload on one machine
// configuration — the study behind the specdsm CLI's multi-app sweep —
// and streams each run's result, in Apps order, to emit. All of cfg's
// execution machinery applies: worker-pool parallelism, checkpointing
// and resume, retry budgets, fault injection, and remote dispatch.
// A non-nil fail selects keep-going, superseding cfg.KeepGoing: it
// receives fatal job failures in index order (pass nil to abort on the
// first failure); unlike the figure studies there is no FAILED row
// shape here, so the caller renders failures itself.
func RunSweepStream(cfg StudyConfig, opts MachineOptions, emit func(i int, r *RunResult) error, fail sweep.FailFunc) error {
	cfg = cfg.withDefaults()
	cfg.KeepGoing = fail != nil
	return streamStudy(cfg, cfg.spec("sweep", opts), func(i int, runs []*RunResult, failed string) error {
		if failed != "" {
			return fail(i, errors.New(failed))
		}
		return emit(i, runs[0])
	})
}
