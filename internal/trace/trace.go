package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"specdsm/internal/core"
	"specdsm/internal/mem"
)

// Event is one directory-incoming coherence message.
type Event struct {
	// Cycle is the directory processing time.
	Cycle int64 `json:"c"`
	// Addr encodes the block (home node in the top bits, see mem.MakeAddr).
	Addr uint64 `json:"a"`
	// Type is the message type (core.MsgType numeric value).
	Type uint8 `json:"t"`
	// Node is the message source.
	Node uint16 `json:"n"`
}

// Trace is a directory message stream: the machine-wide sequence of
// messages its directories processed, in processing order.
type Trace struct {
	Workload string  `json:"workload"`
	Nodes    int     `json:"nodes"`
	Seed     int64   `json:"seed"`
	Events   []Event `json:"events"`

	// blocks is Replay's block numbering, kept with the trace so that a
	// stream replayed in pieces is numbered as one.
	blocks mem.BlockMap
}

// Blocks returns the number of distinct blocks in the trace.
func (t *Trace) Blocks() int {
	seen := make(map[uint64]struct{})
	for _, e := range t.Events {
		seen[e.Addr] = struct{}{}
	}
	return len(seen)
}

// Reset empties the trace and forgets its block numbering, keeping
// both storages, so that it can record a new stream.
func (t *Trace) Reset() {
	t.Events = t.Events[:0]
	t.blocks.Reset()
}

// Replay feeds the trace's events, in recorded order, to each predictor
// and returns nothing; inspect the predictors' Stats/Census afterwards.
// Recorded order preserves per-block arrival order, which is all the
// (per-block) two-level predictors depend on, so one predictor scoring
// the whole machine's stream measures what one instance per directory
// would have measured, summed.
//
// Replay plays the directory's part of the core.Predictor contract for
// the whole trace: it numbers blocks densely in first-appearance order,
// one lookup per event shared by every predictor. The numbering stays
// with the trace until Reset, so a stream may be replayed in pieces:
// replay the events recorded so far, empty Events (keeping the trace),
// record more, replay again. Replaying the same events twice numbers
// them the same way, but a predictor fed them twice must be Reset in
// between. Replay must not run concurrently on one trace.
func Replay(t *Trace, predictors ...core.Predictor) {
	for _, e := range t.Events {
		addr := mem.BlockAddr(e.Addr)
		bi, _ := t.blocks.Reserve(addr, int32(t.blocks.Len()))
		obs := core.Observation{Type: core.MsgType(e.Type), Node: mem.NodeID(e.Node)}
		for _, p := range predictors {
			p.Observe(addr, bi, obs)
		}
	}
}

// fileHeader guards the serialization format.
const formatVersion = 1

type fileEnvelope struct {
	Format  int    `json:"format"`
	Version int    `json:"version"`
	Trace   *Trace `json:"trace"`
}

// Write serializes the trace as JSON.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fileEnvelope{Format: formatVersion, Version: formatVersion, Trace: t}); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write. It refuses a trace a
// machine could not have recorded: a node count outside [1,
// mem.MaxNodes], or an event whose source or block home is not one of
// those nodes, or whose type is not a directory-incoming message.
func Read(r io.Reader) (*Trace, error) {
	var env fileEnvelope
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if env.Format != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format %d", env.Format)
	}
	t := env.Trace
	if t == nil {
		return nil, fmt.Errorf("trace: empty envelope")
	}
	if t.Nodes < 1 || t.Nodes > mem.MaxNodes {
		return nil, fmt.Errorf("trace: node count %d out of range [1, %d]", t.Nodes, mem.MaxNodes)
	}
	for i, e := range t.Events {
		switch {
		case int(e.Node) >= t.Nodes:
			return nil, fmt.Errorf("trace: event %d: source node %d of %d", i, e.Node, t.Nodes)
		case int(mem.BlockAddr(e.Addr).Home()) >= t.Nodes:
			return nil, fmt.Errorf("trace: event %d: block home %d of %d", i, mem.BlockAddr(e.Addr).Home(), t.Nodes)
		case core.MsgType(e.Type) < core.MsgRead || core.MsgType(e.Type) > core.MsgWriteback:
			return nil, fmt.Errorf("trace: event %d: unknown message type %d", i, e.Type)
		}
	}
	return t, nil
}
