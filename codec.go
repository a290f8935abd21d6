package specdsm

import (
	"encoding/binary"
	"fmt"

	"specdsm/internal/wire"
)

// RunResult's binary codec is the one form a row takes outside the
// process that simulated it: a sweepd worker sends it in its jobDone
// frame, the dispatcher decodes it once, and the checkpoint stores it.
// Fields are written in a fixed order in the internal/wire encoding —
// integers as varints, strings and the Predictors slice with a length
// prefix. A row carries counts only: every ratio is a method over them,
// so no float crosses the wire. Changing the layout changes the bytes
// every shard and checkpoint exchanges, so it must bump
// remote.ProtoVersion and the checkpoint format version with it.

// AppendBinary appends r's binary encoding to b (encoding.BinaryAppender).
func (r *RunResult) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(b, r.Workload)
	b = wire.AppendString(b, string(r.Mode))
	b = binary.AppendVarint(b, int64(r.Nodes))
	for _, v := range [...]int64{r.Cycles, r.ComputeCycles, r.SyncCycles, r.RequestWaitCycles} {
		b = binary.AppendVarint(b, v)
	}
	for _, v := range r.counters() {
		b = binary.AppendUvarint(b, *v)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Predictors)))
	for i := range r.Predictors {
		p := &r.Predictors[i]
		b = wire.AppendString(b, string(p.Kind))
		b = binary.AppendVarint(b, int64(p.Depth))
		b = binary.AppendUvarint(b, p.Tracked)
		b = binary.AppendUvarint(b, p.Predicted)
		b = binary.AppendUvarint(b, p.Correct)
		b = binary.AppendVarint(b, int64(p.Blocks))
		b = binary.AppendVarint(b, int64(p.Entries))
	}
	return b, nil
}

// UnmarshalBinary decodes one AppendBinary encoding into r
// (encoding.BinaryUnmarshaler). A cut-short, malformed or overlong
// encoding is an error, as is a predictor kind other than Cosmos, MSP
// or VMSP, and no length in it can make the decoder allocate more than
// the encoding's own size.
func (r *RunResult) UnmarshalBinary(data []byte) error {
	d := wire.Reader{B: data}
	*r = RunResult{Workload: d.Text(), Mode: Mode(d.Text()), Nodes: int(d.Varint())}
	for _, v := range [...]*int64{&r.Cycles, &r.ComputeCycles, &r.SyncCycles, &r.RequestWaitCycles} {
		*v = d.Varint()
	}
	for _, v := range r.counters() {
		*v = d.Uvarint()
	}
	if n := d.Count(); n > 0 {
		r.Predictors = make([]PredictorResult, n)
		for i := range r.Predictors {
			p := &r.Predictors[i]
			p.Kind = PredictorKind(d.Text())
			p.Depth = int(d.Varint())
			p.Tracked, p.Predicted, p.Correct = d.Uvarint(), d.Uvarint(), d.Uvarint()
			p.Blocks, p.Entries = int(d.Varint()), int(d.Varint())
		}
	}
	err := d.Done()
	for i := 0; err == nil && i < len(r.Predictors); i++ {
		_, err = r.Predictors[i].Kind.kind()
	}
	if err != nil {
		return fmt.Errorf("specdsm: decoding RunResult: %w", err)
	}
	return nil
}

// counters lists the unsigned counters in encoding order.
func (r *RunResult) counters() [17]*uint64 {
	return [...]*uint64{&r.Reads, &r.Writes, &r.Upgrades,
		&r.SpecHits, &r.SpecReadsFR, &r.SpecReadsSWI, &r.SpecReadUnused, &r.UnreferencedSpec,
		&r.SpecDropped, &r.SWIRecalls, &r.SWIPremature, &r.SpecUpgrades, &r.SpecUpgradeMisfires,
		&r.Evictions, &r.EvictionWritebacks, &r.NetMsgs, &r.Events}
}
