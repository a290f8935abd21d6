package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"time"

	"specdsm/internal/fault"
	"specdsm/internal/sweep"
)

// Dispatcher defaults.
const (
	DefaultBatchSize        = 4
	DefaultHeartbeatTimeout = 5 * time.Second
	DefaultStealAfter       = 2 * time.Second
	DefaultMaxRedispatch    = 3
	defaultDialTimeout      = 5 * time.Second
	// claimPollEvery is how often an idle connection re-checks the
	// board for claimable work (a lease turns stealable with time alone,
	// which no board event announces). Pure robustness timing: it never
	// influences delivery order or content.
	claimPollEvery = 2 * time.Millisecond
	// backoffBase is the reconnect backoff unit; attempt k waits
	// base<<min(k,5) plus seeded jitter.
	backoffBase = 25 * time.Millisecond
	// dialSite salts the reconnect-jitter hash away from the fault
	// injector's decision sites.
	dialSite uint64 = 0xD1A7
)

// Dispatcher connects a sweep to remote shards: each host becomes a
// sweep.Transport that claims job batches from the sweep's lease board
// and ships them to a sweepd worker over TCP. Robustness model:
//
//   - Job-level failures (the job ran on a shard and failed after its
//     retry budget) are authoritative and settled as such — the same
//     jobs fail with the same texts a local run would produce, because
//     every shard executes the identical deterministic job function.
//   - Transport failures (connection drop, heartbeat timeout, refused
//     handshake) are never settled: the session's leases are requeued
//     and the jobs re-dispatched to surviving shards, down to the
//     sweep's in-process workers when no shard is reachable or a job
//     has killed MaxRedispatch sessions.
//   - Duplicate completions (a stale shard answering after its lease
//     was stolen) resolve first-write-wins on the board, so duplicates
//     and steals cannot reorder or repeat output.
type Dispatcher struct {
	// Hosts lists the shard addresses (host:port), one transport each.
	Hosts []string
	// Spec is the opaque study spec shipped in the handshake; workers
	// rebuild the job function from it (see Server.NewRunner).
	Spec []byte
	// BatchSize is how many job indices one exec frame carries
	// (0 selects DefaultBatchSize).
	BatchSize int
	// HeartbeatTimeout is the per-frame read deadline on shard
	// connections; a shard silent for this long (no result, no
	// heartbeat) is declared dead and its lease requeued (0 selects
	// DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// StealAfter is the lease age past which an idle shard may steal a
	// straggler's job (0 selects DefaultStealAfter).
	StealAfter time.Duration
	// MaxRedispatch caps transport-failure re-dispatches per job; a job
	// that keeps killing shards is left to the in-process workers
	// (0 selects DefaultMaxRedispatch).
	MaxRedispatch int
	// Seed drives the deterministic reconnect-backoff jitter.
	Seed uint64
	// Inject, when non-nil, dresses every dialed connection in its
	// connection-fault schedule (fault.Wrap) — the dispatcher-side seam
	// of the chaos harness.
	Inject *fault.Injector
	// Dial overrides connection establishment (tests script shards
	// through net.Pipe). Nil selects TCP with a timeout.
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives shard lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Dispatcher) batchSize() int {
	if d.BatchSize > 0 {
		return d.BatchSize
	}
	return DefaultBatchSize
}

func (d *Dispatcher) heartbeatTimeout() time.Duration {
	if d.HeartbeatTimeout > 0 {
		return d.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (d *Dispatcher) stealAfter() time.Duration {
	if d.StealAfter > 0 {
		return d.StealAfter
	}
	return DefaultStealAfter
}

func (d *Dispatcher) maxRedispatch() int {
	if d.MaxRedispatch > 0 {
		return d.MaxRedispatch
	}
	return DefaultMaxRedispatch
}

func (d *Dispatcher) dial(addr string) (net.Conn, error) {
	if d.Dial != nil {
		return d.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, defaultDialTimeout)
}

// Transports returns one sweep.Transport per host, for
// sweep.Options.Transports.
func (d *Dispatcher) Transports() []sweep.Transport {
	ts := make([]sweep.Transport, len(d.Hosts))
	for k, host := range d.Hosts {
		ts[k] = func(ctx context.Context, l sweep.Link) { d.shardLoop(ctx, k, host, l) }
	}
	return ts
}

// shardLoop owns one host: connect, serve batches, and on any transport
// failure reconnect with seeded exponential backoff, until the sweep
// finishes or the host refuses the handshake (permanent).
func (d *Dispatcher) shardLoop(ctx context.Context, k int, host string, l sweep.Link) {
	for attempt := 0; ctx.Err() == nil && !l.Finished(); attempt++ {
		err := d.serveShard(ctx, host, l)
		l.SetLive(false)
		if err == nil {
			return // sweep finished or ctx cancelled
		}
		if errors.Is(err, errRefused) {
			d.logf("shard %s: %v (giving up on this host)", host, err)
			return
		}
		d.logf("shard %s: %v (reconnect %d)", host, err, attempt+1)
		d.backoff(ctx, k, attempt)
	}
}

// errRefused marks a worker rejecting the handshake — wrong protocol
// version or a spec its build cannot run. Retrying cannot help.
var errRefused = errors.New("handshake refused")

// serveShard runs one connection session: handshake, then claim/exec
// cycles until the board has no more work for us. Returns nil on a
// clean end (sweep finished or ctx cancelled), an error on any
// transport failure (caller reconnects).
func (d *Dispatcher) serveShard(ctx context.Context, host string, l sweep.Link) error {
	raw, err := d.dial(host)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer raw.Close()
	// The cancel hook closes the dialed connection, not the variable the
	// session goes on to use: it may run at once, on its own goroutine.
	stop := context.AfterFunc(ctx, func() { raw.Close() })
	defer stop()
	conn := fault.Wrap(d.Inject, raw)
	w, r := &lockedConn{c: conn}, bufio.NewReader(conn)

	hbTimeout := d.heartbeatTimeout()
	if err := w.write(&msg{Op: opHello, Proto: ProtoVersion, Payload: d.Spec}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(hbTimeout))
	m, err := readMsg(r)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	switch m.Op {
	case opHelloOK:
	case opRefuse:
		return fmt.Errorf("%w: %s", errRefused, m.Err)
	default:
		return fmt.Errorf("handshake: unexpected op %d", m.Op)
	}
	l.SetLive(true)
	d.logf("shard %s: connected", host)

	// outstanding tracks this session's claimed-but-unanswered indices;
	// whatever remains when the session dies is requeued for the
	// survivors.
	outstanding := make(map[int]bool)
	defer func() { l.Requeue(slices.Collect(maps.Keys(outstanding)), d.maxRedispatch()) }()

	var seq uint64
	for ctx.Err() == nil {
		batch := l.Claim(d.batchSize(), d.stealAfter())
		if batch == nil {
			if l.Finished() {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(claimPollEvery):
			}
			continue
		}
		seq++
		for _, i := range batch {
			outstanding[i] = true
		}
		if err := w.write(&msg{Op: opExec, Seq: seq, Indices: batch}); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		for done := false; !done; {
			conn.SetReadDeadline(time.Now().Add(hbTimeout))
			m, err := readMsg(r)
			if err != nil {
				return fmt.Errorf("read: %w", err)
			}
			switch m.Op {
			case opHeartbeat:
				// Liveness only: it proves the shard is computing, but does
				// not refresh the lease — a straggler that heartbeats
				// without finishing is still eligible for stealing.
			case opJobDone:
				// An undecodable row stays outstanding: the session ends and
				// the job is requeued like any other transport failure.
				if err := l.Settle(m.Index, m.Payload, m.Err, time.Duration(m.DurNS)); err != nil {
					return err
				}
				delete(outstanding, m.Index)
			case opBatchDone:
				done = true
			default:
				return fmt.Errorf("unexpected op %d", m.Op)
			}
		}
	}
	return nil
}

// backoff parks a shard's reconnect loop: exponential in the attempt
// number with seeded deterministic jitter, so a flapping host cannot
// hammer the fleet and two dispatchers with the same seed replay the
// same schedule.
func (d *Dispatcher) backoff(ctx context.Context, host, attempt int) {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	wait := backoffBase << shift
	wait += time.Duration(fault.Mix(d.Seed, dialSite, uint64(host), uint64(attempt)) % uint64(backoffBase))
	select {
	case <-ctx.Done():
	case <-time.After(wait):
	}
}
