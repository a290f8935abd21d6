package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/fault"
	"specdsm/internal/sweep"
)

// row is the deterministic result every executor in these tests
// produces for a job index — remote shard, resurrected shard, or the
// sweep's in-process workers — so the merge contract can be pinned
// exactly. rowPayload is its wire form.
func row(i int) testRow { return testRow(fmt.Sprintf("row-%04d", i)) }

func rowPayload(i int) []byte {
	b, _ := row(i).AppendBinary(nil)
	return b
}

// testRow is a string row with the binary codec a transport needs: a
// uvarint length and the bytes, nothing after.
type testRow string

func (r testRow) AppendBinary(b []byte) ([]byte, error) {
	return append(binary.AppendUvarint(b, uint64(len(r))), r...), nil
}

func (r *testRow) UnmarshalBinary(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || n != uint64(len(b)-k) {
		return errors.New("testRow: malformed encoding")
	}
	*r = testRow(b[k:])
	return nil
}

// writeMsg frames m onto w in one write — the scripted shards' side of
// the wire.
func writeMsg(w io.Writer, m *msg) error {
	b, err := m.appendFrame(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func testRunner() Runner {
	return Runner(func(ctx context.Context, i int) ([]byte, error) {
		return rowPayload(i), nil
	})
}

// localRow is the in-process workers' copy of testRunner's job.
func localRow(_ context.Context, _ struct{}, i int) (testRow, error) { return row(i), nil }

// delivery is one settled index as the sweep handed it over: a row, or
// a failure's text in keep-going mode.
type delivery struct {
	i   int
	row testRow
	err string
}

// runSweep runs jobs [0, n) through sweep.Run with d's shards as
// transports and one in-process worker running local, collecting the
// ordered deliveries. keepGoing routes job failures into the result.
func runSweep(ctx context.Context, d *Dispatcher, p *sweep.Pool, n int, keepGoing bool,
	local func(context.Context, struct{}, int) (testRow, error)) ([]delivery, error) {
	if p == nil {
		p = sweep.New(1)
	}
	var got []delivery
	o := sweep.Options{Transports: d.Transports()}
	if keepGoing {
		o.Fail = func(i int, err error) error {
			got = append(got, delivery{i: i, err: err.Error()})
			return nil
		}
	}
	err := sweep.Run(ctx, p, n, o, nil, local, func(i int, r testRow) error {
		got = append(got, delivery{i: i, row: r})
		return nil
	})
	return got, err
}

// verifyDeliveries pins the full contract: every index in [start, n)
// delivered exactly once, in ascending order, with the deterministic
// row. Any duplicate, gap, or reorder fails here.
func verifyDeliveries(t *testing.T, got []delivery, start, n int) {
	t.Helper()
	if len(got) != n-start {
		t.Fatalf("delivered %d results, want %d", len(got), n-start)
	}
	for k, d := range got {
		want := start + k
		if d.i != want {
			t.Fatalf("delivery %d has index %d, want %d (reorder or duplicate)", k, d.i, want)
		}
		if d.err != "" {
			t.Fatalf("index %d delivered failure %q, want success", d.i, d.err)
		}
		if d.row != row(d.i) {
			t.Fatalf("index %d delivered row %q, want %q", d.i, d.row, row(d.i))
		}
	}
}

// countDone is a pool whose OnJobDone counts successful settlements.
func countDone(done *atomic.Int64) *sweep.Pool {
	p := sweep.New(1)
	p.OnJobDone = func(int, time.Duration) { done.Add(1) }
	return p
}

// startServer runs a worker Server on a loopback listener for the test's
// lifetime and returns its address.
func startServer(t testing.TB, s *Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Serve(ctx, lis)
	return lis.Addr().String()
}

func specCheckedServer(t testing.TB, wantSpec string) *Server {
	return &Server{
		NewRunner: func(spec []byte) (Runner, error) {
			if string(spec) != wantSpec {
				return nil, fmt.Errorf("spec %q, want %q", spec, wantSpec)
			}
			return testRunner(), nil
		},
	}
}

func TestLoopbackSweep(t *testing.T) {
	addr := startServer(t, specCheckedServer(t, "spec-v1"))
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("spec-v1"),
		Seed:  1,
	}
	var local atomic.Int64
	got, err := runSweep(context.Background(), d, nil, 40, false, func(ctx context.Context, s struct{}, i int) (testRow, error) {
		local.Add(1)
		return localRow(ctx, s, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 40)
	if local.Load() != 0 {
		t.Fatalf("%d jobs ran in-process although the shard stayed healthy", local.Load())
	}
}

func TestLoopbackMultiShard(t *testing.T) {
	var hosts []string
	for range 3 {
		hosts = append(hosts, startServer(t, specCheckedServer(t, "spec-v1")))
	}
	var done atomic.Int64
	d := &Dispatcher{
		Hosts:     hosts,
		Spec:      []byte("spec-v1"),
		BatchSize: 3,
		Seed:      2,
	}
	got, err := runSweep(context.Background(), d, countDone(&done), 60, false, localRow)
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 60)
	if done.Load() != 60 {
		t.Fatalf("OnJobDone fired %d times, want 60", done.Load())
	}
}

// TestLocalOnly pins the degenerate fleet: no hosts at all runs the
// whole range on the in-process workers, including a non-zero resume
// offset (a checkpoint holding the first ten rows).
func TestLocalOnly(t *testing.T) {
	ck, err := sweep.OpenCheckpoint(filepath.Join(t.TempDir(), "ck"), "local-only", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		if err := sweep.AppendRow(ck, row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	d := &Dispatcher{Seed: 3}
	var got []delivery
	err = sweep.Run(context.Background(), sweep.New(2), 30, sweep.Options{Checkpoint: ck, Transports: d.Transports()}, nil, localRow,
		func(i int, r testRow) error {
			got = append(got, delivery{i: i, row: r})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 30)
}

// TestUnreachableHostsDegradeToLocal pins graceful degradation: every
// dial fails, so after each host's first attempt resolves the local
// lifeline executes the sweep — same bytes, no error.
func TestUnreachableHostsDegradeToLocal(t *testing.T) {
	d := &Dispatcher{
		Hosts: []string{"shard-a", "shard-b"},
		Seed:  4,
		Dial: func(addr string) (net.Conn, error) {
			return nil, errors.New("no route to host")
		},
	}
	got, err := runSweep(context.Background(), d, nil, 20, false, localRow)
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 20)
}

// TestRefusedWorkerFallsBackToLocal pins the permanent-refusal path: a
// worker whose NewRunner rejects the spec is abandoned (no reconnect
// storm) and the sweep degrades to local.
func TestRefusedWorkerFallsBackToLocal(t *testing.T) {
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) {
		return nil, errors.New("unknown study")
	}}
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("spec-v1"),
		Seed:  5,
	}
	got, err := runSweep(context.Background(), d, nil, 12, false, localRow)
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 12)
}

// TestVersionRefusalFallsBackToLocal pins the version gate: a hello
// whose protocol version is not ProtoVersion gets a refuse naming both
// versions, and the dispatcher gives up on that host after one session
// (errRefused, no reconnects) and finishes on the in-process worker. A
// relay between a real dispatcher and a real server rewrites the hello
// as a stale peer would send it.
func TestVersionRefusalFallsBackToLocal(t *testing.T) {
	addr := startServer(t, specCheckedServer(t, "spec-v1"))
	var dials atomic.Int64
	replies := make(chan *msg, 1)
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("spec-v1"),
		Seed:  14,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			srv, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			c, s := net.Pipe()
			go func() {
				defer s.Close()
				defer srv.Close()
				hello, err := readMsg(s)
				if err != nil {
					return
				}
				hello.Proto = ProtoVersion - 1
				if writeMsg(srv, hello) != nil {
					return
				}
				reply, err := readMsg(srv)
				if err != nil {
					return
				}
				replies <- reply
				writeMsg(s, reply)
			}()
			return c, nil
		},
	}
	var local atomic.Int64
	got, err := runSweep(context.Background(), d, nil, 12, false, func(ctx context.Context, s struct{}, i int) (testRow, error) {
		local.Add(1)
		return localRow(ctx, s, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 12)
	reply := <-replies
	want := fmt.Sprintf("protocol version %d, worker speaks %d", ProtoVersion-1, ProtoVersion)
	if reply.Op != opRefuse || reply.Err != want {
		t.Fatalf("stale hello answered with op %d %q, want a refuse %q", reply.Op, reply.Err, want)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dispatcher dialed the refusing host %d times, want 1", n)
	}
	if n := local.Load(); n != 12 {
		t.Fatalf("in-process worker ran %d jobs, want all 12", n)
	}
}

// --- scripted shards -------------------------------------------------

// scriptedDialer turns a per-session script into a Dispatcher.Dial: each
// dial hands the script the worker side of an in-memory pipe, with a
// 1-based session number so scripts can misbehave once and then recover.
func scriptedDialer(script func(sess int, conn net.Conn)) func(string) (net.Conn, error) {
	var sessions atomic.Int64
	return func(addr string) (net.Conn, error) {
		c, s := net.Pipe()
		go script(int(sessions.Add(1)), s)
		return c, nil
	}
}

// shardHandshake speaks the worker side of the handshake.
func shardHandshake(conn net.Conn) bool {
	m, err := readMsg(conn)
	if err != nil || m.Op != opHello || m.Proto != ProtoVersion {
		return false
	}
	return writeMsg(conn, &msg{Op: opHelloOK}) == nil
}

// behaveShard is a fully well-behaved worker session: handshake, then
// answer every exec batch index-by-index until the dispatcher hangs up.
func behaveShard(conn net.Conn) {
	defer conn.Close()
	if !shardHandshake(conn) {
		return
	}
	for {
		m, err := readMsg(conn)
		if err != nil || m.Op != opExec {
			return
		}
		for _, i := range m.Indices {
			if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
				return
			}
		}
		if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
			return
		}
	}
}

// TestScriptedShardFailures is the failure-mode table: each script
// misbehaves in a specific way on its first session(s) and the test pins
// that the merged output is byte-identical to a clean run — exactly-once,
// in-order, deterministic payloads — with OnJobDone firing exactly once
// per job despite duplicate completions.
func TestScriptedShardFailures(t *testing.T) {
	tests := []struct {
		name   string
		script func() func(sess int, conn net.Conn)
	}{
		{
			// Dial succeeds but the shard dies before the handshake
			// completes — the dispatcher's first claim never happens.
			name: "die-before-claim",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						conn.Close()
						return
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard claims a batch (reads the exec frame) and dies
			// without answering a single job.
			name: "die-after-claim",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						defer conn.Close()
						if !shardHandshake(conn) {
							return
						}
						readMsg(conn) // claim the batch, then die
						return
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard dies mid-stream: some jobDone frames land, the
			// rest of the batch is torn away with the connection.
			name: "die-mid-stream",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						defer conn.Close()
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						i := m.Indices[0]
						writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						return // remaining batch indices die with us
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard dies holding a lease, resurrects, and answers the
			// *old* lease's indices before serving new work — stale
			// completions that race re-dispatched ones. First-write-wins
			// must keep the emit stream exactly-once.
			name: "resurrect-stale-lease",
			script: func() func(int, net.Conn) {
				var stale []int
				return func(sess int, conn net.Conn) {
					defer conn.Close()
					switch sess {
					case 1:
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						stale = m.Indices // die holding this lease
						return
					case 2:
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						// Answer the dead session's lease first — these
						// indices are also in (or racing) the new batch.
						for _, i := range stale {
							writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						}
						for _, i := range m.Indices {
							writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						}
						if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
							return
						}
						behaveShardLoop(conn)
					default:
						behaveShard(conn)
					}
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var done atomic.Int64
			d := &Dispatcher{
				Hosts:            []string{"scripted"},
				Dial:             scriptedDialer(tc.script()),
				BatchSize:        4,
				HeartbeatTimeout: time.Second,
				StealAfter:       100 * time.Millisecond,
				Seed:             42,
			}
			got, err := runSweep(context.Background(), d, countDone(&done), 25, false, localRow)
			if err != nil {
				t.Fatal(err)
			}
			verifyDeliveries(t, got, 0, 25)
			if done.Load() != 25 {
				t.Fatalf("OnJobDone fired %d times, want 25 (duplicate completion leaked)", done.Load())
			}
		})
	}
}

// behaveShardLoop is behaveShard after the handshake already happened.
func behaveShardLoop(conn net.Conn) {
	for {
		m, err := readMsg(conn)
		if err != nil || m.Op != opExec {
			return
		}
		for _, i := range m.Indices {
			if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
				return
			}
		}
		if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
			return
		}
	}
}

// TestPoisonBatchFallsBackToLocal pins the fatal-everywhere path: a
// shard that dies whenever its batch contains a particular index burns
// that batch's transport budget, and the in-process workers adopt the
// poisoned jobs while the fleet keeps serving the rest.
func TestPoisonBatchFallsBackToLocal(t *testing.T) {
	const poison = 5
	script := func(sess int, conn net.Conn) {
		defer conn.Close()
		if !shardHandshake(conn) {
			return
		}
		for {
			m, err := readMsg(conn)
			if err != nil || m.Op != opExec {
				return
			}
			for _, i := range m.Indices {
				if i == poison {
					return // die rather than answer a batch holding the poison job
				}
			}
			for _, i := range m.Indices {
				if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
					return
				}
			}
			if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
				return
			}
		}
	}
	d := &Dispatcher{
		Hosts:            []string{"scripted"},
		Dial:             scriptedDialer(script),
		BatchSize:        2,
		HeartbeatTimeout: time.Second,
		StealAfter:       50 * time.Millisecond,
		MaxRedispatch:    2,
		Seed:             7,
	}
	var local atomic.Int64
	got, err := runSweep(context.Background(), d, nil, 16, false, func(ctx context.Context, s struct{}, i int) (testRow, error) {
		local.Add(1)
		return localRow(ctx, s, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 16)
	if local.Load() == 0 {
		t.Fatal("no job ran in-process: the poisoned batch was never adopted")
	}
}

// TestUndecodableRowIsRequeued pins that a row the dispatcher cannot
// decode is a transport failure, never a job outcome: even in keep-going
// mode it must not become a FAILED row. The session is dropped, the job
// requeued, and once it exhausts its budget the in-process worker's
// correct row is delivered.
func TestUndecodableRowIsRequeued(t *testing.T) {
	const garbled = 3
	script := func(sess int, conn net.Conn) {
		defer conn.Close()
		if !shardHandshake(conn) {
			return
		}
		for {
			m, err := readMsg(conn)
			if err != nil || m.Op != opExec {
				return
			}
			for _, i := range m.Indices {
				payload := rowPayload(i)
				if i == garbled {
					payload = []byte{0xff, 0x00, 0x13}
				}
				if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: payload}) != nil {
					return
				}
			}
			if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
				return
			}
		}
	}
	d := &Dispatcher{
		Hosts:            []string{"scripted"},
		Dial:             scriptedDialer(script),
		BatchSize:        2,
		HeartbeatTimeout: time.Second,
		MaxRedispatch:    2,
		Seed:             13,
	}
	var local []int
	var mu sync.Mutex
	got, err := runSweep(context.Background(), d, nil, 12, true, func(ctx context.Context, s struct{}, i int) (testRow, error) {
		mu.Lock()
		local = append(local, i)
		mu.Unlock()
		return localRow(ctx, s, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 12)
	if !slices.Contains(local, garbled) {
		t.Fatalf("in-process worker ran %v, want it to adopt job %d", local, garbled)
	}
}

// TestJobFailureDeliveredInOrder pins that a job-level failure is a
// settled outcome, not a transport event: the rows before it are
// delivered in order and the sweep stops with the runner's error text.
func TestJobFailureDeliveredInOrder(t *testing.T) {
	const failAt = 7
	const text = "job 7: deterministic fatal failure"
	failing := Runner(func(ctx context.Context, i int) ([]byte, error) {
		if i == failAt {
			return nil, errors.New(text)
		}
		return rowPayload(i), nil
	})
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) { return failing, nil }}
	addr := startServer(t, srv)
	d := &Dispatcher{Hosts: []string{addr}, Seed: 8}
	got, err := runSweep(context.Background(), d, nil, 30, false, localRow)
	if err == nil || err.Error() != text {
		t.Fatalf("Run returned %v, want the job's failure %q", err, text)
	}
	verifyDeliveries(t, got, 0, failAt)
}

// TestKeepGoingDeliversAllFailures pins keep-going mode: failures are
// delivered in place and the sweep continues to the end.
func TestKeepGoingDeliversAllFailures(t *testing.T) {
	flaky := Runner(func(ctx context.Context, i int) ([]byte, error) {
		if i%5 == 2 {
			return nil, fmt.Errorf("job %d failed", i)
		}
		return rowPayload(i), nil
	})
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) { return flaky, nil }}
	addr := startServer(t, srv)
	d := &Dispatcher{Hosts: []string{addr}, Seed: 9}
	got, err := runSweep(context.Background(), d, nil, 20, true, localRow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d results, want 20", len(got))
	}
	for k, dv := range got {
		if dv.i != k {
			t.Fatalf("delivery %d has index %d", k, dv.i)
		}
		if k%5 == 2 {
			if want := fmt.Sprintf("job %d failed", k); dv.err != want {
				t.Fatalf("index %d err %q, want %q", k, dv.err, want)
			}
		} else if dv.err != "" || dv.row != row(k) {
			t.Fatalf("index %d = (%q, %q), want clean row", k, dv.row, dv.err)
		}
	}
}

// TestConnFaultsByteIdentical turns on the full connection-fault
// schedule on both ends of real TCP loopback connections and pins that
// the delivered stream is still exactly the clean stream — drops tear
// sessions (re-dispatched), short reads fragment frames (reassembled),
// delays shuffle timing (order restored by the board).
func TestConnFaultsByteIdentical(t *testing.T) {
	serverInj, err := fault.ParseSpec("seed=101,conndrop=0.002,connshort=0.2,conndelay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	dialInj, err := fault.ParseSpec("seed=202,conndrop=0.002,connshort=0.2,conndelay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := specCheckedServer(t, "spec-v1")
	srv.Inject = serverInj
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts:            []string{addr, addr},
		Spec:             []byte("spec-v1"),
		Inject:           dialInj,
		BatchSize:        3,
		HeartbeatTimeout: 2 * time.Second,
		StealAfter:       200 * time.Millisecond,
		Seed:             11,
	}
	got, err := runSweep(context.Background(), d, nil, 50, false, localRow)
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 50)
}

// TestBoardFirstWriteWins pins the duplicate-resolution primitive: a
// shard that answers every job twice, the second time with a different
// row, delivers each index exactly once with the first write, and the
// completion hook fires once per job.
func TestBoardFirstWriteWins(t *testing.T) {
	script := func(sess int, conn net.Conn) {
		defer conn.Close()
		if !shardHandshake(conn) {
			return
		}
		for {
			m, err := readMsg(conn)
			if err != nil || m.Op != opExec {
				return
			}
			for _, i := range m.Indices {
				writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
				writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i + 1000)})
			}
			if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
				return
			}
		}
	}
	var done atomic.Int64
	d := &Dispatcher{Hosts: []string{"scripted"}, Dial: scriptedDialer(script), Seed: 10}
	got, err := runSweep(context.Background(), d, countDone(&done), 24, false, localRow)
	if err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, got, 0, 24)
	if done.Load() != 24 {
		t.Fatalf("OnJobDone fired %d times, want 24", done.Load())
	}
}

// TestRunCancelled pins that ctx cancellation unblocks a sweep whose
// only shard took a batch and went silent.
func TestRunCancelled(t *testing.T) {
	stall := func(sess int, conn net.Conn) {
		defer conn.Close()
		if shardHandshake(conn) {
			readMsg(conn) // take the batch, never answer
			readMsg(conn) // returns when the dispatcher hangs up
		}
	}
	d := &Dispatcher{Hosts: []string{"stalled"}, Dial: scriptedDialer(stall), HeartbeatTimeout: time.Minute, Seed: 12}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := runSweep(ctx, d, nil, 4, false, localRow); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// BenchmarkLoopbackDispatch measures per-job dispatch overhead over a
// real TCP loopback worker with a trivial runner: framing, batching,
// board bookkeeping, row decoding, and ordered delivery with no
// simulation cost.
func BenchmarkLoopbackDispatch(b *testing.B) {
	addr := startServer(b, specCheckedServer(b, "bench"))
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("bench"),
		Seed:  13,
	}
	b.ResetTimer()
	err := sweep.Run(context.Background(), sweep.New(1), b.N, sweep.Options{Transports: d.Transports()}, nil, localRow,
		func(int, testRow) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
}
