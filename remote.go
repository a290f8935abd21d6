package specdsm

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"

	"specdsm/internal/fault"
	"specdsm/internal/machine"
	"specdsm/internal/remote"
	"specdsm/internal/sweep"
)

// studySpec is the one description of a study's job space: everything
// a sweepd worker needs to rebuild the exact job function this process
// would run, and — rendered field by field by key — the identity its
// checkpoint is recorded under. It carries only value data (no
// callbacks, no checkpoint state): execution knobs like Parallel,
// Remote, and the checkpoint fields stay out because they cannot change
// any job's result.
type studySpec struct {
	// Study selects the job function: predictor, speculation, seeds,
	// scaling, rtl, or sweep.
	Study string `key:"-"`
	// Base is the resume offset: job index j on the wire means absolute
	// study index Base+j. Shipping it keeps the worker's retry/injector
	// schedule keyed on the same relative indices the in-process workers
	// use after a checkpoint replay.
	Base int `key:"-"`

	Apps          []string
	Nodes         int
	Iterations    int
	Scale         float64
	Seed          int64
	Depths        []int
	DisableChecks bool
	Retries       int
	FaultSpec     string

	// Study-specific axes.
	Seeds      []int64        // seeds
	NodeCounts []int          // scaling
	RTLApp     string         // rtl
	RTLParams  WorkloadParams // rtl
	RTLFlights []int          // rtl
	Opts       MachineOptions // sweep (the CLI's machine configuration)
}

// spec lifts the config's job-identity scalars into the named study's
// spec. Call on a config that already has defaults applied, so both
// ends of a remote sweep resolve to the same concrete values.
func (c StudyConfig) spec(study string) studySpec {
	return studySpec{
		Study:         study,
		Apps:          c.Apps,
		Nodes:         c.Nodes,
		Iterations:    c.Iterations,
		Scale:         c.Scale,
		Seed:          c.Seed,
		Depths:        c.Depths,
		DisableChecks: c.DisableChecks,
		Retries:       c.Retries,
		FaultSpec:     c.FaultSpec,
	}
}

// config is the worker-side inverse of StudyConfig.spec.
func (rs studySpec) config() StudyConfig {
	return StudyConfig{
		Apps:          rs.Apps,
		Nodes:         rs.Nodes,
		Iterations:    rs.Iterations,
		Scale:         rs.Scale,
		Seed:          rs.Seed,
		Depths:        rs.Depths,
		DisableChecks: rs.DisableChecks,
		Retries:       rs.Retries,
		FaultSpec:     rs.FaultSpec,
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
	p.RetrySeed = uint64(rs.Seed)
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
// An unknown study or an unparsable spec is a construction error; the
// server refuses the connection so the dispatcher abandons this worker
// instead of retrying a spec that cannot get better.
func NewRemoteRunner(spec []byte) (remote.Runner, error) {
	var rs studySpec
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&rs); err != nil {
		return nil, fmt.Errorf("specdsm: decoding study spec: %w", err)
	}
	cfg := rs.config()
	switch rs.Study {
	case "predictor":
		return runnerFor(rs, predictorJob(cfg))
	case "speculation":
		return runnerFor(rs, speculationJob(cfg))
	case "seeds":
		return runnerFor(rs, seedsJob(cfg, rs.Seeds))
	case "scaling":
		return runnerFor(rs, scalingJob(cfg, rs.NodeCounts))
	case "rtl":
		w, err := AppWorkload(rs.RTLApp, rs.RTLParams)
		if err != nil {
			return nil, err
		}
		return runnerFor(rs, rtlJob(w, rs.RTLFlights))
	case "sweep":
		return runnerFor(rs, sweepJob(cfg, rs.Opts))
	default:
		return nil, fmt.Errorf("specdsm: unknown remote study %q", rs.Study)
	}
}

// runnerFor wraps a study's job function as a remote.Runner: one arena,
// a single-job pool carrying the spec's retry/fault policy, and gob
// encoding of each settled row.
func runnerFor[T any](rs studySpec, fn func(context.Context, *machine.Arena, int) (T, error)) (remote.Runner, error) {
	p, err := rs.pool(1)
	if err != nil {
		return nil, err
	}
	arena := machine.NewArena()
	return remote.RunnerFunc(func(ctx context.Context, j int) ([]byte, error) {
		v, err := sweep.RunOne(ctx, p, arena, rs.Base, j, fn)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("specdsm: encoding job %d result: %w", rs.Base+j, err)
		}
		return buf.Bytes(), nil
	}), nil
}

// streamStudy is the execution backend every study driver fans out on:
// one sweep.Run that replays the study's checkpoint, runs the remaining
// jobs on in-process workers and — when cfg.Remote names shard workers
// — on those shards, and delivers rows and keep-going failures to
// emit/fail strictly in index order, so a study cannot tell how (or
// where) its jobs ran. With shards the in-process side is a single
// worker: the degradation floor for a dead fleet and poison jobs.
func streamStudy[T any](cfg StudyConfig, rs studySpec, n int,
	fn func(context.Context, *machine.Arena, int) (T, error),
	emit func(int, T) error, fail sweep.FailFunc) error {
	ck, err := cfg.checkpoint(rs, n)
	if err != nil {
		return err
	}
	o := sweep.Options{Checkpoint: ck, Fail: fail}
	if ck != nil {
		rs.Base = ck.Rows()
	}
	if len(cfg.Remote) > 0 {
		cfg.Parallel = 1
	}
	pool, err := cfg.pool(n - rs.Base)
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
	return sweep.Run(context.Background(), pool, n, o, machine.NewArena, fn, emit)
}

// RunSweepStream runs every cfg.Apps workload on one machine
// configuration — the study behind the specdsm CLI's multi-app sweep —
// and streams each run's result, in Apps order, to emit. All of cfg's
// execution machinery applies: worker-pool parallelism, checkpointing
// and resume, retry budgets, fault injection, and remote dispatch.
// fail receives fatal job failures in index order when the sweep runs
// keep-going (pass nil to abort on the first failure); unlike the
// figure studies there is no FAILED row shape here, so the caller
// renders failures itself.
func RunSweepStream(cfg StudyConfig, opts MachineOptions, emit func(i int, r *RunResult) error, fail sweep.FailFunc) error {
	cfg = cfg.withDefaults()
	rs := cfg.spec("sweep")
	rs.Opts = opts
	return streamStudy(cfg, rs, len(cfg.Apps), sweepJob(cfg, opts), emit, fail)
}

// sweepJob builds the CLI sweep's job function: application i of
// cfg.Apps simulated once under opts.
func sweepJob(cfg StudyConfig, opts MachineOptions) func(context.Context, *machine.Arena, int) (*RunResult, error) {
	wp := cfg.workloadParams()
	return func(_ context.Context, arena *machine.Arena, i int) (*RunResult, error) {
		w, err := AppWorkload(cfg.Apps[i], wp)
		if err != nil {
			return nil, err
		}
		return runInArena(arena, w, opts)
	}
}
