package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
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

// Trace is a captured run.
type Trace struct {
	Workload string  `json:"workload"`
	Nodes    int     `json:"nodes"`
	Seed     int64   `json:"seed"`
	Events   []Event `json:"events"`
}

// Blocks returns the number of distinct blocks in the trace.
func (t *Trace) Blocks() int {
	seen := make(map[uint64]struct{})
	for _, e := range t.Events {
		seen[e.Addr] = struct{}{}
	}
	return len(seen)
}

// Clock provides the current simulation time (implemented by sim.Kernel).
type Clock interface {
	Now() sim.Cycle
}

// Recorder captures directory message streams. It is a core.Predictor,
// the passive-observer contract, so it attaches wherever a scoring
// observer can; it scores nothing.
type Recorder struct {
	clock Clock
	trace Trace
}

// NewRecorder creates a recorder stamping events with the given clock.
func NewRecorder(clock Clock, workload string, nodes int, seed int64) *Recorder {
	return &Recorder{
		clock: clock,
		trace: Trace{Workload: workload, Nodes: nodes, Seed: seed},
	}
}

// Trace returns the captured trace (shared, not copied).
func (r *Recorder) Trace() *Trace { return &r.trace }

// Observe implements core.Predictor by recording the message. It keys
// nothing by the block index: one recorder sees every directory (see
// machine.Machine.AttachObserver), whose indices overlap.
func (r *Recorder) Observe(addr mem.BlockAddr, _ int32, obs core.Observation) core.Outcome {
	var cycle int64
	if r.clock != nil {
		cycle = int64(r.clock.Now())
	}
	r.trace.Events = append(r.trace.Events, Event{
		Cycle: cycle,
		Addr:  uint64(addr),
		Type:  uint8(obs.Type),
		Node:  uint16(obs.Node),
	})
	return core.Outcome{}
}

var _ core.Predictor = (*Recorder)(nil)

// Replay feeds the trace's events, in captured order, to each predictor
// and returns nothing; inspect the predictors' Stats/Census afterwards.
// Captured order preserves per-block arrival order, which is all the
// (per-block) two-level predictors depend on.
//
// Replay plays the directory's part of the core.Predictor contract for
// the whole trace: it numbers blocks densely in first-appearance order,
// one lookup per event shared by every predictor. The numbering is local
// to one call, so a predictor fed by more than one Replay must be Reset
// in between.
func Replay(t *Trace, predictors ...core.Predictor) {
	var blocks mem.BlockMap
	for _, e := range t.Events {
		addr := mem.BlockAddr(e.Addr)
		bi, _ := blocks.Reserve(addr, int32(blocks.Len()))
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

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	var env fileEnvelope
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if env.Format != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format %d", env.Format)
	}
	if env.Trace == nil {
		return nil, fmt.Errorf("trace: empty envelope")
	}
	return env.Trace, nil
}
