package sweep_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"specdsm/internal/fault"
	"specdsm/internal/sweep"
)

const salvageKey = "test-study|n=unbounded"

// writeFullCheckpoint runs a complete n-job checkpointed sweep at path
// and returns the emitted rows — the clean reference for salvage tests.
func writeFullCheckpoint(t *testing.T, path string, n int) []row {
	t.Helper()
	out, err := runCheckpointed(t, path, n, 1, 4, -1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// completeSalvaged finishes the sweep from a salvaged checkpoint and
// returns every emitted row (replayed prefix + re-run remainder).
func completeSalvaged(t *testing.T, ck *sweep.Checkpoint, n int, ran *atomic.Int64) []row {
	t.Helper()
	var out []row
	err := sweep.Run(context.Background(), sweep.New(1), n, sweep.Options{Checkpoint: ck}, nil,
		func(_ context.Context, _ struct{}, i int) (row, error) {
			if ran != nil {
				ran.Add(1)
			}
			return mkRow(i), nil
		},
		func(i int, v row) error { out = append(out, v); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSalvageOffsetClasses corrupts a real checkpoint at each byte
// offset class — header, mid-frame, trailing garbage, truncation in the
// last frame — and verifies salvage recovers a valid prefix and the
// completed sweep matches the clean run exactly. Strict resume refuses
// the damage and accepts the two torn tails (trailing garbage shorter
// than a frame header, a cut final frame), which a crash mid-flush
// leaves.
func TestSalvageOffsetClasses(t *testing.T) {
	const n = 12
	mutate := map[string]struct {
		fn        func(b []byte) []byte
		fullRerun bool // corruption destroys the header: expect zero rows salvaged
		torn      bool // the file ends inside a frame: strict resume repairs it
	}{
		"header magic":    {func(b []byte) []byte { b[3] ^= 0xff; return b }, true, false},
		"header version":  {func(b []byte) []byte { b[8] = 0xfe; return b }, true, false},
		"mid frame":       {func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, false, false},
		"trailing":        {func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) }, false, true},
		"truncate in crc": {func(b []byte) []byte { return b[:len(b)-2] }, false, true},
	}
	for name, tc := range mutate {
		tc := tc
		t.Run(name, func(t *testing.T) {
			path := ckPath(t)
			want := writeFullCheckpoint(t, path, n)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := tc.fn(append([]byte(nil), b...))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.torn {
				// Strict resume repairs a torn tail; try it on a copy so
				// salvage below still sees the damage.
				cp := ckPath(t)
				if err := os.WriteFile(cp, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := sweep.ResumeCheckpoint(cp, salvageKey, 4); err != nil {
					t.Fatalf("strict resume refused a torn tail: %v", err)
				}
			} else if _, err := sweep.ResumeCheckpoint(path, salvageKey, 4); err == nil {
				t.Fatal("strict resume accepted a corrupted file")
			}
			ck, rep, err := sweep.SalvageCheckpoint(path, salvageKey, 4)
			if err != nil {
				t.Fatal(err)
			}
			if tc.fullRerun && ck.Rows() != 0 {
				t.Fatalf("salvaged %d rows from an unreadable header", ck.Rows())
			}
			if ck.Rows() > n {
				t.Fatalf("salvaged %d rows from an %d-row file", ck.Rows(), n)
			}
			if rep.Rows != ck.Rows() {
				t.Fatalf("report says %d rows, checkpoint has %d", rep.Rows, ck.Rows())
			}
			var ran atomic.Int64
			got := completeSalvaged(t, ck, n, &ran)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("salvaged+completed output diverged from clean run:\n got %+v\nwant %+v", got, want)
			}
			if ran.Load() != int64(n-rep.Rows) {
				t.Fatalf("re-ran %d jobs, want %d (n=%d minus %d salvaged)", ran.Load(), n-rep.Rows, n, rep.Rows)
			}
			// Salvage rewrote the file: a strict resume now succeeds.
			if _, err := sweep.ResumeCheckpoint(path, salvageKey, 4); err != nil {
				t.Fatalf("strict resume after salvage+complete: %v", err)
			}
		})
	}
}

// TestSalvageEveryByteOffset is the exhaustive sweep: flip each single
// byte of a real checkpoint file and salvage. Every offset must yield
// either a successful salvage whose completed output equals the clean
// run, or — for corruption inside the header's key region only — a
// KeyMismatchError.
func TestSalvageEveryByteOffset(t *testing.T) {
	const n = 12
	base := ckPath(t)
	want := writeFullCheckpoint(t, base, n)
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := 8 + 4 + 4 + len(salvageKey)
	dir := t.TempDir()
	// Every header byte and the file tail are tested exhaustively; deep
	// payload offsets are strided (each salvage rewrite costs an fsync,
	// and mid-payload bytes are all the same offset class).
	offsets := make([]int, 0, len(clean))
	for off := range clean {
		if off < headerLen+64 || off >= len(clean)-16 || off%7 == 0 {
			offsets = append(offsets, off)
		}
	}
	for _, off := range offsets {
		b := append([]byte(nil), clean...)
		b[off] ^= 0x41
		path := filepath.Join(dir, fmt.Sprintf("off%d.ckpt", off))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, _, err := sweep.SalvageCheckpoint(path, salvageKey, 4)
		if err != nil {
			var km *sweep.KeyMismatchError
			if !errors.As(err, &km) {
				t.Fatalf("offset %d: salvage failed with %v (only key mismatch is a hard error)", off, err)
			}
			if off >= headerLen {
				t.Fatalf("offset %d is payload, but salvage saw a key mismatch", off)
			}
			continue
		}
		got := completeSalvaged(t, ck, n, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: salvaged+completed output diverged from clean run", off)
		}
	}
}

// frameBoundaries parses a checkpoint file's frame layout and returns
// every byte offset that ends a whole frame (the header end, then one
// offset per frame) — the exact set of truncation points that leave a
// structurally clean prefix.
func frameBoundaries(t *testing.T, b []byte, key string) []int {
	t.Helper()
	off := 8 + 4 + 4 + len(key) // fixed header + key
	bounds := []int{off}
	for off < len(b) {
		if off+4 > len(b) {
			t.Fatalf("frame header straddles EOF at offset %d", off)
		}
		payload := int(binary.LittleEndian.Uint32(b[off : off+4]))
		off += 9 + payload // len + kind + frameCRC + payload
		bounds = append(bounds, off)
	}
	if off != len(b) {
		t.Fatalf("frame walk overshot: %d of %d bytes", off, len(b))
	}
	return bounds
}

// TestSalvageDegenerateFiles pins the salvage edge cases that have no
// damaged bytes to detect — the file just ends too soon: a zero-length
// file, a header-only file, and truncation exactly on a frame boundary.
// An append-only file records no frame count, so a header-only file or
// one cut on a boundary is simply a shorter valid checkpoint: strict
// resume adopts exactly its whole frames, as salvage does. Only the
// zero-length file, which has no header, is refused. Either way the
// sweep completes to the clean run's output.
func TestSalvageDegenerateFiles(t *testing.T) {
	const n = 12
	base := ckPath(t)
	want := writeFullCheckpoint(t, base, n)
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, clean, salvageKey)
	if len(bounds) != n+1 {
		t.Fatalf("clean file has %d frames, want %d", len(bounds)-1, n)
	}

	cases := []struct {
		name   string
		cut    int  // file length to keep
		rows   int  // frames salvage must adopt
		strict bool // strict resume accepts the file
	}{
		{"zero length", 0, 0, false},
		{"header only", bounds[0], 0, true},
		{"boundary after frame 1", bounds[1], 1, true},
		{"boundary mid file", bounds[n/2], n / 2, true},
		{"boundary before last frame", bounds[n-1], n - 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := ckPath(t)
			if err := os.WriteFile(path, clean[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			switch ck, err := sweep.ResumeCheckpoint(path, salvageKey, 4); {
			case !tc.strict && err == nil:
				t.Fatal("strict resume accepted a file without a header")
			case !tc.strict && !errors.Is(err, sweep.ErrCheckpointCorrupt):
				t.Fatalf("strict resume err = %v, want ErrCheckpointCorrupt", err)
			case tc.strict && err != nil:
				t.Fatalf("strict resume refused a valid prefix: %v", err)
			case tc.strict && ck.Rows() != tc.rows:
				t.Fatalf("strict resume adopted %d rows, want %d", ck.Rows(), tc.rows)
			}
			ck, rep, err := sweep.SalvageCheckpoint(path, salvageKey, 4)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Rows() != tc.rows || rep.Rows != tc.rows {
				t.Fatalf("salvaged %d rows (report %d), want %d", ck.Rows(), rep.Rows, tc.rows)
			}
			// Truncation at a boundary leaves nothing past the last whole
			// frame, so no payload bytes are dropped.
			if rep.DroppedBytes != 0 {
				t.Fatalf("DroppedBytes = %d, want 0 (cut was on a boundary)", rep.DroppedBytes)
			}
			var ran atomic.Int64
			got := completeSalvaged(t, ck, n, &ran)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("salvaged+completed output diverged from clean run:\n got %+v\nwant %+v", got, want)
			}
			if ran.Load() != int64(n-tc.rows) {
				t.Fatalf("re-ran %d jobs, want %d", ran.Load(), n-tc.rows)
			}
			if _, err := sweep.ResumeCheckpoint(path, salvageKey, 4); err != nil {
				t.Fatalf("strict resume after salvage+complete: %v", err)
			}
		})
	}
}

// keepGoingEvents runs an n-job keep-going sweep (optionally
// checkpointed) over a fixed fatal-failure set and returns the ordered
// emit/fail event log.
func keepGoingEvents(t *testing.T, path string, n, workers int, interruptAt int) ([]string, error) {
	t.Helper()
	bad := map[int]bool{3: true, 17: true, 18: true, 35: true}
	var ck *sweep.Checkpoint
	if path != "" {
		var err error
		ck, err = sweep.ResumeCheckpoint(path, salvageKey, 4)
		if err != nil {
			return nil, err
		}
	}
	var events []string
	interrupted := errors.New("interrupted")
	emit := func(i int, v row) error {
		if interruptAt >= 0 && len(events) >= interruptAt {
			return interrupted
		}
		events = append(events, fmt.Sprintf("ok %d %s", i, v.Name))
		return nil
	}
	fail := func(i int, err error) error {
		if interruptAt >= 0 && len(events) >= interruptAt {
			return interrupted
		}
		events = append(events, fmt.Sprintf("FAILED %d: %v", i, err))
		return nil
	}
	err := sweep.Run(context.Background(), sweep.New(workers), n, sweep.Options{Checkpoint: ck, Fail: fail}, nil,
		func(_ context.Context, _ struct{}, i int) (row, error) {
			if bad[i] {
				return row{}, fmt.Errorf("job %d broke", i)
			}
			return mkRow(i), nil
		}, emit)
	return events, err
}

// TestKeepGoingCheckpointResume pins the keep-going × checkpoint
// contract: failures occupy frames, so an interrupted keep-going sweep
// resumes into exactly the event sequence (including failure text) an
// uninterrupted run produces, at any worker count.
func TestKeepGoingCheckpointResume(t *testing.T) {
	const n = 40
	want, err := keepGoingEvents(t, "", n, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("reference produced %d events, want %d", len(want), n)
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := ckPath(t)
			if _, err := keepGoingEvents(t, path, n, workers, 20); err == nil {
				t.Fatal("interrupted run reported success")
			}
			got, err := keepGoingEvents(t, path, n, workers, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed keep-going events diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestReplayFailureFrameWithoutSink: resuming a checkpoint that holds
// failure frames without keep-going enabled must explain itself.
func TestReplayFailureFrameWithoutSink(t *testing.T) {
	path := ckPath(t)
	const n = 10
	if _, err := keepGoingEvents(t, path, n, 1, -1); err != nil {
		t.Fatal(err)
	}
	ck, err := sweep.ResumeCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = sweep.Run(context.Background(), sweep.New(1), n, sweep.Options{Checkpoint: ck}, nil,
		func(_ context.Context, _ struct{}, i int) (row, error) { return mkRow(i), nil },
		func(i int, v row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "recorded failure") {
		t.Fatalf("err = %v, want a recorded-failure explanation", err)
	}
}

func TestKeyMismatchDiff(t *testing.T) {
	path := ckPath(t)
	stored := "specdsm/fig9|apps=em3d|nodes=16|iters=100|seed=1"
	current := "specdsm/fig9|apps=em3d,moldyn|nodes=32|iters=100|seed=1|faults=seed=3"
	if _, err := sweep.OpenCheckpoint(path, stored, 2); err != nil {
		t.Fatal(err)
	}
	_, err := sweep.ResumeCheckpoint(path, current, 2)
	var km *sweep.KeyMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("err = %v, want *KeyMismatchError", err)
	}
	if !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatal("KeyMismatchError does not satisfy ErrCheckpointMismatch")
	}
	diff := strings.Join(km.Diff(), "\n")
	for _, wantLine := range []string{
		"apps: checkpoint has em3d, this run has em3d,moldyn",
		"nodes: checkpoint has 16, this run has 32",
		"faults: checkpoint has (absent), this run has seed=3",
	} {
		if !strings.Contains(diff, wantLine) {
			t.Errorf("Diff() missing %q:\n%s", wantLine, diff)
		}
	}
	for _, same := range []string{"iters", "seed:", "study"} {
		if strings.Contains(diff, same) {
			t.Errorf("Diff() reports unchanged field %q:\n%s", same, diff)
		}
	}
}

// TestFlushSurvivesInjectedIOFaults: a flush that dies on an injected
// short write must error without damaging the frames already on disk —
// a later strict resume drops the torn tail and sees exactly the old
// rows.
func TestFlushSurvivesInjectedIOFaults(t *testing.T) {
	t.Run("shortwrite", func(t *testing.T) {
		path := ckPath(t)
		const n = 8
		writeFullCheckpoint(t, path, n)

		in := fault.New(11)
		in.ShortWrite = 1.0
		ck, err := sweep.ResumeCheckpointFS(fault.NewFS(in, nil), path, salvageKey, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.AppendRow(ck, mkRow(n)); err != nil {
			t.Fatal(err)
		}
		if err := ck.Flush(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("flush err = %v, want an injected fault", err)
		}
		clean, err := sweep.ResumeCheckpoint(path, salvageKey, 4)
		if err != nil {
			t.Fatalf("snapshot damaged by failed flush: %v", err)
		}
		if clean.Rows() != n {
			t.Fatalf("snapshot holds %d rows after failed flush, want %d", clean.Rows(), n)
		}
	})
}

// TestTornAppendResumesInOrder is the crash-mid-flush regression: a
// flush torn by a short write leaves part of its frames on disk; the
// next resume must truncate them before appending, so rows appended
// after the tear are not lost behind garbage, and a second resume
// replays every settled row in order.
func TestTornAppendResumesInOrder(t *testing.T) {
	const n = 20
	path := ckPath(t)
	ck, err := sweep.OpenCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		if err := sweep.AppendRow(ck, mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// The crashing session: its first flush, of three frames, tears
	// half-way through the second.
	in := fault.New(5)
	in.ShortWrite = 1.0
	ck, err = sweep.ResumeCheckpointFS(fault.NewFS(in, nil), path, salvageKey, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 11; i++ {
		err = sweep.AppendRow(ck, mkRow(i))
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn flush err = %v, want an injected fault", err)
	}
	if torn, err := os.Stat(path); err != nil || torn.Size() <= intact.Size() {
		t.Fatalf("short write left no torn tail (%v)", err)
	}

	// Resume drops the tail before anything is appended, then the sweep
	// appends the remaining rows.
	ck, err = sweep.ResumeCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The short write persisted half the torn flush: its whole frame
	// counts, the cut one does not.
	if ck.Rows() != 9 {
		t.Fatalf("resumed %d rows past a flush of rows 8-10 torn in row 9, want 9", ck.Rows())
	}
	prefix := intact.Size()
	for i := 8; i < ck.Rows(); i++ {
		prefix += int64(9 + len(mustEncode(t, mkRow(i))))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != prefix {
		t.Fatalf("resume left %d bytes, want the %d-byte valid prefix (%v)", fi.Size(), prefix, err)
	}
	if got := completeSalvaged(t, ck, n, nil); len(got) != n {
		t.Fatalf("completed sweep emitted %d rows, want %d", len(got), n)
	}

	ck, err = sweep.ResumeCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []row
	if err := sweep.ReplayCheckpoint(ck, func(i int, v row) error {
		if i != len(got) {
			t.Fatalf("replayed index %d after %d rows", i, len(got))
		}
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if i >= len(got) || !reflect.DeepEqual(got[i], mkRow(i)) {
			t.Fatalf("replayed %d rows; row %d wrong or missing", len(got), i)
		}
	}
}

// countingFS counts the bytes the checkpoint writes through it.
type countingFS struct {
	fault.FS
	written int64
}

func (c *countingFS) OpenWrite(name string) (fault.File, error) {
	f, err := c.FS.OpenWrite(name)
	return countingFile{f, c}, err
}

type countingFile struct {
	fault.File
	fs *countingFS
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written += int64(n)
	return n, err
}

// TestCheckpointWritesEachByteOnce pins the append-only cost model: over
// a whole checkpointed sweep the bytes written equal the final file
// size — no flush rewrites what an earlier one wrote.
func TestCheckpointWritesEachByteOnce(t *testing.T) {
	const n = 50
	path := ckPath(t)
	fsys := &countingFS{FS: fault.OS}
	ck, err := sweep.OpenCheckpointFS(fsys, path, salvageKey, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := completeSalvaged(t, ck, n, nil); len(got) != n {
		t.Fatalf("sweep emitted %d rows, want %d", len(got), n)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fsys.written != fi.Size() {
		t.Fatalf("wrote %d bytes for a %d-byte checkpoint", fsys.written, fi.Size())
	}
}

// failingReadFS fails every read after the first `after` bytes of each
// opened file, with an error that is not the end of input.
type failingReadFS struct {
	fault.FS
	after int
}

func (f failingReadFS) Open(name string) (fault.ReadFile, error) {
	rf, err := f.FS.Open(name)
	return &failingRead{rf, f.after}, err
}

type failingRead struct {
	fault.ReadFile
	left int
}

func (r *failingRead) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, errors.New("injected read error")
	}
	n, err := r.ReadFile.Read(p[:min(len(p), r.left)])
	r.left -= n
	return n, err
}

// TestOpenReadErrorTruncatesNothing: a read that fails while a
// checkpoint is scanned is neither a torn tail nor damage, so neither
// resume path may adopt a prefix and truncate the file after it.
func TestOpenReadErrorTruncatesNothing(t *testing.T) {
	path := ckPath(t)
	writeFullCheckpoint(t, path, 12)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{10, len(clean) / 2} {
		fsys := failingReadFS{fault.OS, after}
		if _, err := sweep.ResumeCheckpointFS(fsys, path, salvageKey, 4); err == nil {
			t.Errorf("resume with a read failing after %d bytes succeeded", after)
		}
		if _, _, err := sweep.SalvageCheckpointFS(fsys, path, salvageKey, 4); err == nil {
			t.Errorf("salvage with a read failing after %d bytes succeeded", after)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != string(clean) {
			t.Fatalf("a failed read after %d bytes changed the file (%d of %d bytes left)", after, len(b), len(clean))
		}
	}
}
