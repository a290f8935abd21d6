package sweep_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"specdsm/internal/sweep"
)

// FuzzCheckpointFrames feeds arbitrary bytes to ResumeCheckpoint as a
// file on disk. Resume must not panic or allocate past the input (a
// length field is never trusted beyond the file's size). A refused file
// is left unchanged, and a complete header recorded under another key
// is always refused. An adopted file is truncated to the input's own
// header and whole frames — the adopted prefix decodes frame for frame,
// so no row is misread — or, when the input was a proper prefix of the
// sweep's header (a torn first flush), restarted to a bare header. A second resume of the truncated file adopts the
// same rows with nothing dropped.
func FuzzCheckpointFrames(f *testing.F) {
	const key = "fuzz-study|n=8"
	// Seed with a real two-row checkpoint plus degenerate shapes, so
	// mutation starts from structurally meaningful bytes: torn tails,
	// a flipped payload bit, a bare header.
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.ckpt")
	ck, err := sweep.OpenCheckpoint(seedPath, key, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sweep.AppendRow(ck, mkRow(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := ck.Flush(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(append(append([]byte(nil), seed...), 7, 0))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-4] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("SPDSMCKP"))
	f.Add([]byte{})

	header := append([]byte("SPDSMCKP"), 4, 0, 0, 0, byte(len(key)), 0, 0, 0)
	header = append(header, key...)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		ck, err := sweep.ResumeCheckpoint(path, key, 100)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !errors.Is(err, sweep.ErrCheckpointCorrupt) && !errors.Is(err, sweep.ErrCheckpointMismatch) {
				t.Fatalf("refusal without a checkpoint sentinel: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("refused file changed: %d bytes, was %d", len(got), len(data))
			}
			return
		}
		if otherKey(data, key) {
			t.Fatal("resume adopted a checkpoint recorded under another key")
		}

		// The file now holds this sweep's header and whole frames, each
		// a byte-for-byte prefix of the input unless the header was cut
		// short and the file restarted.
		rows, kept := ck.Rows(), len(got)
		switch restarted := !bytes.HasPrefix(data, header); {
		case !restarted && !bytes.HasPrefix(data, got):
			t.Fatalf("resume left %d bytes that are not a prefix of the input", len(got))
		case restarted && (len(data) >= len(header) || !bytes.HasPrefix(header, data)):
			t.Fatalf("resume restarted a %d-byte input that is not a cut-short header", len(data))
		case restarted && !bytes.Equal(got, header):
			t.Fatalf("a restarted file holds %d bytes, want the %d-byte header", len(got), len(header))
		case restarted:
			kept = 0
		}
		if frames := countFrames(t, got[len(header):]); frames != rows {
			t.Fatalf("file holds %d whole frames, resume adopted %d", frames, rows)
		}
		if rep := ck.Salvaged(); rep.Rows != rows || rep.DroppedBytes != int64(len(data)-kept) {
			t.Fatalf("report %+v, want %d rows and %d dropped bytes", rep, rows, len(data)-kept)
		}

		// The adopted prefix replays end to end: decode failures
		// surface as errors, never panics.
		replayErr := sweep.Run(context.Background(), sweep.New(1), 8, sweep.Options{Checkpoint: ck}, nil,
			func(_ context.Context, _ struct{}, i int) (row, error) { return mkRow(i), nil },
			func(i int, v row) error { return nil })
		_ = replayErr // may fail (e.g. valid CRC, alien row bytes) — it just must not panic

		// Replay may have appended rows: resume the truncated input.
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := sweep.ResumeCheckpoint(path, key, 100)
		if err != nil {
			t.Fatalf("second resume rejects the truncated file: %v", err)
		}
		if again.Rows() != rows || again.Salvaged() != (sweep.SalvageReport{Rows: rows}) {
			t.Fatalf("second resume adopted %d rows, report %+v; want %d, nothing dropped",
				again.Rows(), again.Salvaged(), rows)
		}
	})
}

// otherKey reports whether data starts with a complete version-3
// header recorded under a key other than key.
func otherKey(data []byte, key string) bool {
	if len(data) < 16 || string(data[:8]) != "SPDSMCKP" || binary.LittleEndian.Uint32(data[8:]) != 3 {
		return false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(data[12:]))
	return keyLen <= uint64(len(data)-16) && string(data[16:16+keyLen]) != key
}

// countFrames walks b as a sequence of whole frames, independently of
// the package's reader, and returns how many there are; any byte that
// is not part of a valid frame fails the test.
func countFrames(t *testing.T, b []byte) int {
	t.Helper()
	n := 0
	for len(b) > 0 {
		if len(b) < 9 {
			t.Fatalf("frame %d: %d bytes left, shorter than a frame header", n, len(b))
		}
		size := uint64(binary.LittleEndian.Uint32(b))
		if b[4] > 1 || size > uint64(len(b)-9) {
			t.Fatalf("frame %d: kind %d, length %d with %d bytes left", n, b[4], size, len(b)-9)
		}
		sum := crc32.Update(crc32.ChecksumIEEE(b[:5]), crc32.IEEETable, b[9:9+size])
		if sum != binary.LittleEndian.Uint32(b[5:9]) {
			t.Fatalf("frame %d: CRC mismatch in an adopted frame", n)
		}
		b = b[9+size:]
		n++
	}
	return n
}
