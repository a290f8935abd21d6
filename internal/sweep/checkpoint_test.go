package sweep_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"specdsm/internal/sweep"
)

// row is a representative study row: a name, floats, and a slice, with
// the binary codec every checkpointed row type carries.
type row struct {
	Index    int
	Name     string
	Acc, Cov float64
	Series   []int64
}

func mkRow(i int) row {
	return row{
		Index:  i,
		Name:   fmt.Sprintf("app-%d", i%3),
		Acc:    float64(i) * 1.5,
		Cov:    1 / float64(i+1),
		Series: []int64{int64(i), int64(i * i)},
	}
}

func (r row) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(r.Index))
	b = append(binary.AppendUvarint(b, uint64(len(r.Name))), r.Name...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Acc))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Cov))
	for _, v := range r.Series {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// UnmarshalBinary decodes AppendBinary's layout; the series runs to the
// end of the encoding.
func (r *row) UnmarshalBinary(b []byte) error {
	bad := errors.New("row: malformed encoding")
	idx, n := binary.Varint(b)
	if n <= 0 {
		return bad
	}
	b = b[n:]
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return bad
	}
	*r = row{Index: int(idx), Name: string(b[n : n+int(l)])}
	b = b[n+int(l):]
	if len(b) < 16 {
		return bad
	}
	r.Acc = math.Float64frombits(binary.LittleEndian.Uint64(b))
	r.Cov = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	for b = b[16:]; len(b) > 0; b = b[n:] {
		var v int64
		if v, n = binary.Varint(b); n <= 0 {
			return bad
		}
		r.Series = append(r.Series, v)
	}
	return nil
}

func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "study.ckpt")
}

// runCheckpointed streams n jobs through a checkpoint, failing job
// failAt (-1 = none), and returns the emitted rows and error.
func runCheckpointed(t *testing.T, path string, n, workers, every, failAt int, resume bool, ran *atomic.Int64) ([]row, error) {
	t.Helper()
	var ck *sweep.Checkpoint
	var err error
	if resume {
		ck, err = sweep.ResumeCheckpoint(path, "test-study|n=unbounded", every)
	} else {
		ck, err = sweep.OpenCheckpoint(path, "test-study|n=unbounded", every)
	}
	if err != nil {
		return nil, err
	}
	var out []row
	err = sweep.Run(context.Background(), sweep.New(workers), n, sweep.Options{Checkpoint: ck}, nil,
		func(_ context.Context, _ struct{}, i int) (row, error) {
			if ran != nil {
				ran.Add(1)
			}
			if i == failAt {
				return row{}, fmt.Errorf("job %d interrupted", i)
			}
			return mkRow(i), nil
		},
		func(i int, v row) error {
			out = append(out, v)
			return nil
		})
	return out, err
}

func TestCheckpointInterruptResumeEqualsFresh(t *testing.T) {
	const n = 50
	// Uninterrupted reference run, no checkpoint.
	var want []row
	if err := sweep.Run(context.Background(), sweep.New(1), n, sweep.Options{}, nil,
		sweep.Stateless(func(_ context.Context, i int) (row, error) { return mkRow(i), nil }),
		func(i int, v row) error { want = append(want, v); return nil }); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := ckPath(t)
			// First run dies at job 23: rows up to the last flush survive.
			if _, err := runCheckpointed(t, path, n, workers, 4, 23, false, nil); err == nil {
				t.Fatal("interrupted run reported success")
			}
			var ran atomic.Int64
			got, err := runCheckpointed(t, path, n, workers, 4, -1, true, &ran)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed emission diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
			if ran.Load() == n {
				t.Fatal("resume re-ran every job; checkpoint replay did nothing")
			}
		})
	}
}

func TestCheckpointCompletedSweepReplaysWithoutWork(t *testing.T) {
	path := ckPath(t)
	const n = 20
	want, err := runCheckpointed(t, path, n, 4, 3, -1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	got, err := runCheckpointed(t, path, n, 4, 3, -1, true, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("fully checkpointed sweep still ran %d jobs", ran.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed rows diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointOpenRefusesExistingFile(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 5, 1, 2, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := sweep.OpenCheckpoint(path, "test-study|n=unbounded", 2)
	if !errors.Is(err, sweep.ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}
}

func TestCheckpointKeyMismatch(t *testing.T) {
	path := ckPath(t)
	if _, err := sweep.OpenCheckpoint(path, "study-A", 2); err != nil {
		t.Fatal(err)
	}
	_, err := sweep.ResumeCheckpoint(path, "study-B", 2)
	if !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestCheckpointMoreRowsThanJobs(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 30, 1, 1, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := runCheckpointed(t, path, 10, 1, 1, -1, true, nil)
	if !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointRejectsCorruption pins how resume rejects a damaged
// file, the header policy included. What the header says is not this
// sweep's checkpoint — not a checkpoint at all, another format version,
// another study key — is refused, and the file is left unchanged.
// So is a damaged header the file ends inside: a key length that runs
// past the end, or the cut start of another sweep's header. Everything
// else is cut away: damaged frames are truncated and their jobs re-run,
// and a proper prefix of the sweep's own header (a torn first flush)
// restarts the file from job 0. Each recovered sweep completes to the clean run's
// output, re-running only the lost jobs.
func TestCheckpointRejectsCorruption(t *testing.T) {
	const n = 12
	cases := map[string]struct {
		fn      func([]byte) []byte
		refused error // the sentinel resume refuses the file with, or nil
		rows    int   // frames adopted when not refused
	}{
		"truncated":    {fn: func(b []byte) []byte { return b[:12] }, rows: 0},
		"bad magic":    {fn: func(b []byte) []byte { b[0] ^= 0xff; return b }, refused: sweep.ErrCheckpointCorrupt},
		"flipped byte": {fn: func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b }, rows: n - 1},
		"trailing": {fn: func(b []byte) []byte {
			// A whole frame: len 2, kind row, CRC 0 (wrong), payload.
			return append(b, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xde, 0xad)
		}, rows: n},
		"empty": {fn: func(b []byte) []byte { return nil }, rows: 0},
		"version": {fn: func(b []byte) []byte {
			b[8] = 0xfe // version field follows the 8-byte magic
			return b
		}, refused: sweep.ErrCheckpointMismatch},
		"not a checkpoint": {fn: func([]byte) []byte { return []byte("speculation results, do not delete\n") },
			refused: sweep.ErrCheckpointCorrupt},
		"key length past the end": {fn: func(b []byte) []byte {
			b[14] ^= 0x41 // keyLen's third byte: the key now ends megabytes past the file
			return b
		}, refused: sweep.ErrCheckpointCorrupt},
		"other key cut short": {fn: func(b []byte) []byte {
			b[16] ^= 0x20
			return b[:20] // a torn first flush of another sweep
		}, refused: sweep.ErrCheckpointCorrupt},
		"other key": {fn: func(b []byte) []byte {
			b[16] ^= 0x20 // the key's first byte follows the 16-byte fixed header
			return b
		}, refused: sweep.ErrCheckpointMismatch},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			path := ckPath(t)
			want, clean := cleanCheckpoint(t, path, n)
			if err := os.WriteFile(path, tc.fn(append([]byte(nil), clean...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.refused == nil {
				checkRecovered(t, path, n, tc.rows, want, clean)
				return
			}
			err := checkRefused(t, path, tc.refused)
			var km *sweep.KeyMismatchError
			if isKey := errors.As(err, &km); isKey != (name == "other key") {
				t.Fatalf("err = %v: *KeyMismatchError %v, want %v", err, isKey, !isKey)
			}
		})
	}
}

// TestResumeRepairsTornTail pins the crash contract of the append-only
// file: a file that ends inside its final frame — a flush torn by a
// crash — resumes strictly from the whole frames before it, and the torn
// bytes are truncated before anything is appended.
func TestResumeRepairsTornTail(t *testing.T) {
	const n = 12
	ref := ckPath(t)
	if _, err := runCheckpointed(t, ref, n, 1, 2, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(clean) - (9 + len(mustEncode(t, mkRow(n-1))))
	for name, tc := range map[string]struct {
		data []byte
		rows int
	}{
		"cut in the last payload": {clean[:len(clean)-5], n - 1},
		"cut in the last header":  {clean[:lastFrame+4], n - 1},
		"partial next frame":      {append(append([]byte(nil), clean...), 0xde, 0xad), n},
	} {
		t.Run(name, func(t *testing.T) {
			path := ckPath(t)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := sweep.ResumeCheckpoint(path, "test-study|n=unbounded", 2)
			if err != nil {
				t.Fatalf("strict resume refused a torn tail: %v", err)
			}
			if ck.Rows() != tc.rows {
				t.Fatalf("resumed %d rows, want %d", ck.Rows(), tc.rows)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(clean) - (n-tc.rows)*(len(clean)-lastFrame); fi.Size() != int64(want) {
				t.Fatalf("file is %d bytes after resume, want the %d-byte valid prefix", fi.Size(), want)
			}
		})
	}
}

func mustEncode(t *testing.T, r row) []byte {
	t.Helper()
	b, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckpointResumeMissingFileStartsFresh(t *testing.T) {
	path := ckPath(t)
	got, err := runCheckpointed(t, path, 8, 2, 2, -1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("emitted %d rows, want 8", len(got))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
}

// TestCheckpointFlushLeavesNoTempFile pins the append-only discipline:
// flushes write the checkpoint file in place, never a temp file beside
// it, and the file holds every row.
func TestCheckpointFlushLeavesNoTempFile(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 9, 1, 2, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// The snapshot must validate cleanly and hold all 9 rows.
	ck, err := sweep.ResumeCheckpoint(path, "test-study|n=unbounded", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rows() != 9 {
		t.Fatalf("snapshot holds %d rows, want 9", ck.Rows())
	}
}

// TestStreamWindowBoundsLookahead pins the bounded-merge contract: with
// Window = W, no job starts more than W indices ahead of the emission
// frontier, even when low indices are slow.
func TestStreamWindowBoundsLookahead(t *testing.T) {
	const (
		n      = 200
		window = 8
	)
	var emitted atomic.Int64
	var maxAhead atomic.Int64
	p := sweep.New(16)
	p.Window = window
	err := sweep.Run(context.Background(), p, n, sweep.Options{}, nil,
		sweep.Stateless(func(_ context.Context, i int) (int, error) {
			ahead := int64(i) - emitted.Load()
			for {
				cur := maxAhead.Load()
				if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
					break
				}
			}
			return i, nil
		}),
		func(i, v int) error {
			emitted.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAhead.Load(); got > window {
		t.Fatalf("job ran %d ahead of the merge frontier, window is %d", got, window)
	}
}
