package remote

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireFrame feeds arbitrary bytes to the frame decoder, both as a
// bare frame body and as a length-prefixed stream. Neither may panic; a
// decoded frame's counts may not exceed its own size (no allocation
// past the input length); and every frame that decodes re-encodes to a
// frame that decodes to the same msg.
func FuzzWireFrame(f *testing.F) {
	for _, m := range []*msg{
		{Op: opHello, Proto: ProtoVersion, Payload: []byte("spec")},
		{Op: opExec, Seq: 7, Indices: []int{0, 1, 300, 1 << 40}},
		{Op: opJobDone, Seq: 7, Index: 300, DurNS: 123456, Payload: rowPayload(300)},
		{Op: opJobDone, Seq: 7, Index: -1, Err: "job failed"},
		{Op: opHeartbeat},
	} {
		b, err := m.appendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{opExec, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		readMsg(bytes.NewReader(data)) // a stream of garbage must not panic
		m, err := decodeMsg(data)
		if err != nil {
			return
		}
		if len(m.Indices) > len(data) || len(m.Payload) > len(data) || len(m.Err) > len(data) {
			t.Fatalf("a %d-byte frame decoded to %d indices, %d payload and %d error bytes",
				len(data), len(m.Indices), len(m.Payload), len(m.Err))
		}
		frame, err := m.appendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := readMsg(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("frame changed across a round trip:\n got %+v\nwant %+v", again, m)
		}
	})
}

// TestWireFrameRejectsOversizedCounts pins the allocation guard: a
// count larger than the bytes that remain is refused before anything
// is allocated for it.
func TestWireFrameRejectsOversizedCounts(t *testing.T) {
	for name, body := range map[string][]byte{
		"indices": {opExec, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"payload": {opJobDone, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03},
		"error":   {opRefuse, 0, 0, 0, 0, 0, 0, 0x10, 'x'},
	} {
		if _, err := decodeMsg(body); err == nil {
			t.Errorf("%s: oversized count accepted", name)
		}
	}
}
