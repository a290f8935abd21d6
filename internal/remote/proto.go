package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"specdsm/internal/wire"
)

// ProtoVersion is the wire protocol version. The hello/helloOK handshake
// pins it on both ends, so a stale worker refuses cleanly instead of
// mis-decoding frames. It covers the frame layout below and the row
// encoding jobDone frames carry.
const ProtoVersion = 2

// Message ops. One universal frame type keeps the framing layer dumb:
// every frame is a length prefix plus one binary-encoded msg, so a
// reader resynchronizes per frame and no decoder state is shared
// across frames.
const (
	opHello     uint8 = iota + 1 // dispatcher → worker: version + study spec
	opHelloOK                    // worker → dispatcher: spec accepted
	opRefuse                     // worker → dispatcher: handshake rejected (Err says why)
	opExec                       // dispatcher → worker: run the job indices in Indices
	opJobDone                    // worker → dispatcher: one job's result or failure
	opBatchDone                  // worker → dispatcher: every index of the batch answered
	opHeartbeat                  // worker → dispatcher: liveness while a long job runs
)

// msg is the universal wire frame. Unused fields stay zero and cost one
// byte each. After the 4-byte little-endian length prefix a frame holds,
// in order (in the internal/wire encoding):
//
//	op       uint8
//	proto    uvarint                  opHello (always at offset 1)
//	seq      uvarint                  opExec / opJobDone / opBatchDone
//	index    varint                   opJobDone
//	durNS    varint                   opJobDone
//	indices  uvarint count + varints  opExec
//	payload  uvarint length + bytes   opHello spec, opJobDone row
//	err      uvarint length + bytes   opJobDone failure, opRefuse reason
type msg struct {
	Op      uint8
	Proto   int
	Seq     uint64
	Index   int
	DurNS   int64
	Indices []int
	Payload []byte // opHello: the study spec; opJobDone: the row's binary encoding
	Err     string
}

// maxFrame bounds one frame's encoded size; like the checkpoint layer's
// frame bound it keeps a corrupted length prefix from demanding a
// multi-gigabyte allocation.
const maxFrame = 1 << 24

// appendFrame appends m's length-prefixed frame to b, refusing a frame
// larger than maxFrame.
func (m *msg) appendFrame(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, m.Op)
	b = binary.AppendUvarint(b, uint64(m.Proto))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Index))
	b = binary.AppendVarint(b, m.DurNS)
	b = binary.AppendUvarint(b, uint64(len(m.Indices)))
	for _, i := range m.Indices {
		b = binary.AppendVarint(b, int64(i))
	}
	b = wire.AppendBytes(b, m.Payload)
	b = wire.AppendString(b, m.Err)
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// decodeMsg decodes one frame body. Payload aliases body. Every count is
// checked against the bytes that remain before anything is allocated.
func decodeMsg(body []byte) (*msg, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("remote: decode frame: %w", wire.ErrMalformed)
	}
	d := wire.Reader{B: body[1:]}
	m := &msg{Op: body[0], Proto: int(d.Uvarint()), Seq: d.Uvarint(), Index: int(d.Varint()), DurNS: d.Varint()}
	if n := d.Count(); n > 0 {
		m.Indices = make([]int, n)
		for k := range m.Indices {
			m.Indices[k] = int(d.Varint())
		}
	}
	m.Payload, m.Err = d.Bytes(), d.Text()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("remote: decode frame (op %d): %w", m.Op, err)
	}
	return m, nil
}

// readMsg reads one frame from r (a buffered reader over the
// connection, so a stream of small frames costs few reads). io.ReadFull
// reassembles short reads (legal for net.Conn, and exactly what
// fault.Conn injects), so partial delivery perturbs timing, never
// content.
func readMsg(r io.Reader) (*msg, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame length %d exceeds the %d-byte bound", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeMsg(body)
}

// lockedConn serializes frame writes to one connection. The worker
// needs the lock — the heartbeat goroutine and the batch executor share
// the conn — and the dispatcher pays it uncontended. Each frame goes out
// in one write, so an injected connection drop tears at a frame boundary
// or inside exactly one frame, never across two; buf is reused across
// frames under the lock.
type lockedConn struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte
}

func (lc *lockedConn) write(m *msg) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var err error
	if lc.buf, err = m.appendFrame(lc.buf[:0]); err != nil {
		return err
	}
	_, err = lc.c.Write(lc.buf)
	return err
}
