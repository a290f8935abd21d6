package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"specdsm/internal/fault"
)

// Runner executes one registered study's jobs on a worker. It returns
// the binary encoding of the result row (the row type's AppendBinary,
// which the dispatcher's sweep decodes with UnmarshalBinary) for the
// given absolute job index, or the job's (already retry-settled)
// failure. A Runner is called from one goroutine at a time — the server
// builds a fresh Runner per connection, so state it closes over (a
// machine.Arena) needs no locking.
type Runner func(ctx context.Context, index int) ([]byte, error)

// DefaultHeartbeatEvery is the worker's liveness cadence while a batch
// executes. It must be comfortably under the dispatcher's per-frame
// read deadline (Dispatcher.HeartbeatTimeout).
const DefaultHeartbeatEvery = 250 * time.Millisecond

// Server is the worker side of the shard protocol: it accepts
// dispatcher connections, builds a Runner per connection from the
// handshake's study spec, and executes job batches, streaming one
// jobDone frame per job. A long-running sweepd process serves any
// number of sequential or concurrent dispatchers; each connection's
// Runner (and the arena inside it) amortizes across that dispatcher's
// batches.
type Server struct {
	// NewRunner builds the per-connection job executor from the
	// handshake's study spec. An error refuses the connection with the
	// error text (the dispatcher gives up on this worker rather than
	// retrying a spec that cannot get better).
	NewRunner func(spec []byte) (Runner, error)
	// Inject, when non-nil, dresses every accepted connection in its
	// connection-fault schedule (fault.Wrap) — the chaos harness's
	// worker-side drops/short-reads/delays.
	Inject *fault.Injector
	// HeartbeatEvery overrides the liveness cadence (0 selects
	// DefaultHeartbeatEvery).
	HeartbeatEvery time.Duration
	// Logf, when non-nil, receives per-connection and per-batch
	// diagnostics (the chaos harness watches for the batch lines to time
	// its kill).
	Logf func(format string, args ...any)
}

// Serve accepts and handles connections on lis until ctx is cancelled
// (which closes the listener and every open connection) or the listener
// fails. The error on a ctx-driven shutdown is nil.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	stop := context.AfterFunc(ctx, func() { lis.Close() })
	defer stop()
	var nconn atomic.Uint64
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("remote: accept: %w", err)
		}
		go s.handle(ctx, conn, nconn.Add(1))
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle speaks the protocol on one dispatcher connection until the
// connection dies or ctx ends. Job execution is sequential within the
// connection; parallelism across the fleet comes from the dispatcher
// fanning batches over many workers.
func (s *Server) handle(ctx context.Context, raw net.Conn, id uint64) {
	defer raw.Close()
	// As in the dispatcher, the cancel hook may run at once on its own
	// goroutine, so it closes the accepted connection, never reassigned.
	stop := context.AfterFunc(ctx, func() { raw.Close() })
	defer stop()
	conn := fault.Wrap(s.Inject, raw)
	lc := &lockedConn{c: conn}
	r := bufio.NewReader(conn)

	hello, err := readMsg(r)
	if err != nil || hello.Op != opHello {
		s.logf("conn %d: bad handshake: %v", id, err)
		return
	}
	if hello.Proto != ProtoVersion {
		lc.write(&msg{Op: opRefuse, Err: fmt.Sprintf("protocol version %d, worker speaks %d", hello.Proto, ProtoVersion)})
		return
	}
	runner, err := s.NewRunner(hello.Payload)
	if err != nil {
		s.logf("conn %d: spec refused: %v", id, err)
		lc.write(&msg{Op: opRefuse, Err: err.Error()})
		return
	}
	if err := lc.write(&msg{Op: opHelloOK}); err != nil {
		return
	}
	s.logf("conn %d: dispatcher connected", id)

	// The heartbeat goroutine keeps frames flowing while a long job
	// computes, so the dispatcher can hold a short read deadline without
	// mistaking slow work for death. It only beats while a batch is
	// executing — an idle connection is not being read, and unsolicited
	// frames would pile up in the transport.
	var executing atomic.Bool
	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		every := s.HeartbeatEvery
		if every <= 0 {
			every = DefaultHeartbeatEvery
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-tick.C:
				if executing.Load() {
					lc.write(&msg{Op: opHeartbeat})
				}
			}
		}
	}()

	for {
		m, err := readMsg(r)
		if err != nil {
			s.logf("conn %d: dispatcher gone: %v", id, err)
			return
		}
		if m.Op != opExec {
			s.logf("conn %d: unexpected op %d", id, m.Op)
			return
		}
		s.logf("conn %d: exec batch seq=%d jobs=%v", id, m.Seq, m.Indices)
		executing.Store(true)
		ok := s.runBatch(ctx, lc, runner, m)
		executing.Store(false)
		if !ok {
			return
		}
		if err := lc.write(&msg{Op: opBatchDone, Seq: m.Seq}); err != nil {
			return
		}
	}
}

// runBatch executes one exec frame's indices in order, streaming a
// jobDone per index. A write failure means the dispatcher is gone —
// the batch is abandoned (its lease will be re-dispatched) and the
// connection torn down.
func (s *Server) runBatch(ctx context.Context, lc *lockedConn, runner Runner, m *msg) bool {
	for _, idx := range m.Indices {
		if ctx.Err() != nil {
			return false
		}
		start := time.Now()
		payload, err := runner(ctx, idx)
		done := msg{Op: opJobDone, Seq: m.Seq, Index: idx, Payload: payload, DurNS: int64(time.Since(start))}
		if err != nil {
			// The failure is job-level and already settled (the runner
			// applied the study's retry budget): ship the text, not the
			// payload. Transport errors never take this path.
			done.Err = err.Error()
			done.Payload = nil
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return false
			}
		}
		if werr := lc.write(&done); werr != nil {
			return false
		}
	}
	return true
}
