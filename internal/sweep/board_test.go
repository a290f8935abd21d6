package sweep

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

// TestBoardMemoryIsWindowSized runs a transport-served sweep with far
// more jobs than window slots and pins the O(window) memory contract:
// the board's slot storage is exactly Window long, and a delivered
// job's payload is dropped from its slot the moment it is handed over
// (its slot is empty or already holds job i+Window).
func TestBoardMemoryIsWindowSized(t *testing.T) {
	const (
		n      = 10000
		window = 64
	)
	payload := func(j int) []byte {
		b := make([]byte, 1024)
		binary.LittleEndian.PutUint64(b, uint64(j))
		return b
	}
	owner := func(b blob) int { return int(binary.LittleEndian.Uint64(b)) }

	boards := make(chan *board[blob], 1)
	shard := func(ctx context.Context, l Link) {
		boards <- l.(link[blob]).b
		l.SetLive(true)
		for !l.Finished() {
			batch := l.Claim(8, time.Hour)
			if batch == nil {
				runtime.Gosched()
				continue
			}
			for _, j := range batch {
				l.Settle(j, payload(j), "", time.Microsecond)
			}
		}
	}
	p := New(1)
	p.Window = window
	var b *board[blob]
	err := Run(context.Background(), p, n, Options{Transports: []Transport{shard}}, nil,
		func(context.Context, struct{}, int) (blob, error) {
			t.Error("in-process worker ran a job while the transport was live")
			return nil, nil
		},
		func(i int, v blob) error {
			if b == nil {
				b = <-boards
			}
			if owner(v) != i {
				t.Fatalf("job %d delivered job %d's row", i, owner(v))
			}
			b.mu.Lock()
			defer b.mu.Unlock()
			if len(b.ring) != window {
				t.Fatalf("board holds %d slots for a %d-job sweep, want the %d-slot window", len(b.ring), n, window)
			}
			if s := b.slot(i); s.v != nil && owner(s.v) == i {
				t.Fatalf("delivered job %d still holds its payload", i)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range b.ring {
		if s.v != nil || s.state != slotFree {
			t.Fatalf("slot %d not cleared after the sweep: state %d, payload %v", k, s.state, s.v != nil)
		}
	}
}

// blob is a raw-bytes row with the binary codec a transport needs.
type blob []byte

func (b blob) AppendBinary(dst []byte) ([]byte, error) { return append(dst, b...), nil }

func (b *blob) UnmarshalBinary(data []byte) error {
	*b = append(blob(nil), data...)
	return nil
}
