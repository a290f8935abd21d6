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
// integers as varints, floats as their IEEE-754 bits (NaN payloads and
// -0 survive), strings and the Predictors slice with a length prefix.
// Changing the layout changes the bytes every shard and checkpoint
// exchanges, so it must bump remote.ProtoVersion and the checkpoint
// format version with it.

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
		b = wire.AppendFloat(b, p.Accuracy)
		b = wire.AppendFloat(b, p.Coverage)
		b = wire.AppendFloat(b, p.CorrectFraction)
		b = binary.AppendVarint(b, int64(p.Blocks))
		b = binary.AppendVarint(b, int64(p.Entries))
		b = wire.AppendFloat(b, p.EntriesPerBlock)
		b = wire.AppendFloat(b, p.BytesPerBlock)
	}
	return b, nil
}

// UnmarshalBinary decodes one AppendBinary encoding into r
// (encoding.BinaryUnmarshaler). A cut-short, malformed or overlong
// encoding is an error, and no length in it can make the decoder
// allocate more than the encoding's own size.
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
			p.Accuracy, p.Coverage, p.CorrectFraction = d.Float(), d.Float(), d.Float()
			p.Blocks, p.Entries = int(d.Varint()), int(d.Varint())
			p.EntriesPerBlock, p.BytesPerBlock = d.Float(), d.Float()
		}
	}
	if err := d.Done(); err != nil {
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
