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
// and returns the emitted rows — the clean reference for the damaged
// file tests.
func writeFullCheckpoint(t *testing.T, path string, n int) []row {
	t.Helper()
	out, err := runCheckpointed(t, path, n, 1, 4, -1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cleanCheckpoint writes a complete n-job checkpoint at path and
// returns its rows and its bytes.
func cleanCheckpoint(t *testing.T, path string, n int) ([]row, []byte) {
	t.Helper()
	want := writeFullCheckpoint(t, path, n)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want, b
}

// completeResumed finishes the sweep from a resumed checkpoint and
// returns every emitted row (replayed prefix + re-run remainder).
func completeResumed(t *testing.T, ck *sweep.Checkpoint, n int, ran *atomic.Int64) []row {
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

// checkRecovered resumes from the damaged copy at path of a clean
// n-job checkpoint (want its rows, clean its bytes). Resume must adopt
// exactly rows frames and report every byte after them as dropped; the
// sweep completed from it must equal the clean run with only the lost
// jobs re-run; and a second resume of the truncated file must adopt all
// n rows, dropping nothing. It returns the first resume's report.
func checkRecovered(t *testing.T, path string, n, rows int, want []row, clean []byte) sweep.SalvageReport {
	t.Helper()
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sweep.ResumeCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatalf("resume refused a damaged file: %v", err)
	}
	rep := ck.Salvaged()
	if ck.Rows() != rows || rep.Rows != rows {
		t.Fatalf("resume adopted %d rows (report %d), want %d", ck.Rows(), rep.Rows, rows)
	}
	kept := frameBoundaries(t, clean, salvageKey)[rows]
	if kept > len(damaged) {
		kept = 0 // a header cut short restarts the file
	}
	if rep.DroppedBytes != int64(len(damaged)-kept) {
		t.Fatalf("DroppedBytes = %d, want %d", rep.DroppedBytes, len(damaged)-kept)
	}
	if rep.DroppedBytes > 0 && rep.Reason == "" {
		t.Fatalf("dropped %d bytes without a reason", rep.DroppedBytes)
	}
	var ran atomic.Int64
	if got := completeResumed(t, ck, n, &ran); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed+completed output diverged from clean run:\n got %+v\nwant %+v", got, want)
	}
	if ran.Load() != int64(n-rows) {
		t.Fatalf("re-ran %d jobs, want %d (n=%d minus %d adopted)", ran.Load(), n-rows, n, rows)
	}
	again, err := sweep.ResumeCheckpoint(path, salvageKey, 4)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if again.Rows() != n || again.Salvaged() != (sweep.SalvageReport{Rows: n}) {
		t.Fatalf("second resume adopted %d rows, report %+v; want %d, nothing dropped", again.Rows(), again.Salvaged(), n)
	}
	return rep
}

// checkRefused resumes from the file at path, which must fail with
// sentinel and leave the file byte for byte as it was.
func checkRefused(t *testing.T, path string, sentinel error) error {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep.ResumeCheckpoint(path, salvageKey, 4)
	if !errors.Is(err, sentinel) {
		t.Fatalf("resume err = %v, want %v", err, sentinel)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || string(after) != string(before) {
		t.Fatalf("refused file changed: %d bytes before, %d after (%v)", len(before), len(after), rerr)
	}
	return err
}

// frameOf returns the index of the frame holding byte off of a clean
// checkpoint whose frame boundaries are bounds.
func frameOf(bounds []int, off int) int {
	k := 0
	for k+1 < len(bounds) && bounds[k+1] <= off {
		k++
	}
	return k
}

// TestSalvageOffsetClasses damages a real checkpoint at each byte
// offset class — header, mid-frame, trailing garbage, truncation in the
// last frame — and resumes. Damage after the header is cut away: resume
// adopts the frames before it and the completed sweep matches the clean
// run exactly. A damaged magic or version is refused with the file left
// unchanged.
func TestSalvageOffsetClasses(t *testing.T) {
	const n = 12
	mutate := map[string]struct {
		fn      func(b []byte) []byte
		refused error                  // the sentinel resume refuses the file with, or nil
		rows    func(bounds []int) int // frames adopted, from the clean file's frame boundaries
	}{
		"header magic":   {fn: func(b []byte) []byte { b[3] ^= 0xff; return b }, refused: sweep.ErrCheckpointCorrupt},
		"header version": {fn: func(b []byte) []byte { b[8] = 0xfe; return b }, refused: sweep.ErrCheckpointMismatch},
		"mid frame": {fn: func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
			rows: func(bounds []int) int { return frameOf(bounds, bounds[n]/2) }},
		"trailing": {fn: func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) },
			rows: func([]int) int { return n }},
		"truncate in crc": {fn: func(b []byte) []byte { return b[:len(b)-2] },
			rows: func([]int) int { return n - 1 }},
	}
	for name, tc := range mutate {
		tc := tc
		t.Run(name, func(t *testing.T) {
			path := ckPath(t)
			want, clean := cleanCheckpoint(t, path, n)
			if err := os.WriteFile(path, tc.fn(append([]byte(nil), clean...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.refused != nil {
				checkRefused(t, path, tc.refused)
				return
			}
			checkRecovered(t, path, n, tc.rows(frameBoundaries(t, clean, salvageKey)), want, clean)
		})
	}
}

// TestSalvageEveryByteOffset is the exhaustive sweep: flip each single
// byte of a real checkpoint file and resume. A flip in frame k adopts
// exactly the k frames before it, and the completed output equals the
// clean run. A flip in the header is refused with the file unchanged:
// the magic as not a checkpoint, the version as a mismatch, a key
// length that points past the end of the file as corrupt (a torn first
// flush cannot leave a long file), and the key, or a key length still
// inside the file, as a *KeyMismatchError. No header flip restarts the
// file, which would destroy its saved frames.
func TestSalvageEveryByteOffset(t *testing.T) {
	const n = 12
	base := ckPath(t)
	want, clean := cleanCheckpoint(t, base, n)
	bounds := frameBoundaries(t, clean, salvageKey)
	headerLen := bounds[0]
	dir := t.TempDir()
	// Every header byte and the file tail are tested exhaustively; deep
	// payload offsets are strided (each truncation costs an fsync, and
	// mid-payload bytes are all the same offset class).
	for off := range clean {
		if off >= headerLen+64 && off < len(clean)-16 && off%7 != 0 {
			continue
		}
		b := append([]byte(nil), clean...)
		b[off] ^= 0x41
		path := filepath.Join(dir, fmt.Sprintf("off%d.ckpt", off))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := sweep.ResumeCheckpoint(path, salvageKey, 4)
		if err != nil {
			var km *sweep.KeyMismatchError
			switch {
			case off < 8 && errors.Is(err, sweep.ErrCheckpointCorrupt):
			case off >= 8 && off < 12 && errors.Is(err, sweep.ErrCheckpointMismatch) && !errors.As(err, &km):
			case off >= 13 && off < 16 && errors.Is(err, sweep.ErrCheckpointCorrupt) && !errors.As(err, &km):
			case (off == 12 || off >= 16) && off < headerLen && errors.As(err, &km):
			default:
				t.Fatalf("offset %d: resume failed with %v", off, err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || string(after) != string(b) {
				t.Fatalf("offset %d: refused file changed (%v)", off, rerr)
			}
			continue
		}
		if off < headerLen {
			t.Fatalf("offset %d: resume accepted a damaged header", off)
		}
		if wantRows := frameOf(bounds, off); ck.Rows() != wantRows {
			t.Fatalf("offset %d: adopted %d rows, want %d", off, ck.Rows(), wantRows)
		}
		if got := completeResumed(t, ck, n, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: resumed+completed output diverged from clean run", off)
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

// TestSalvageDegenerateFiles pins the edge cases that have no damaged
// bytes to detect — the file just ends too soon. An append-only file
// records no frame count, so a header-only file or one cut on a frame
// boundary is simply a shorter valid checkpoint: resume adopts exactly
// its whole frames and drops nothing. A file that is a proper prefix
// of the sweep's header — empty, cut in the magic, cut in the key — is
// a torn first flush: resume restarts it from job 0 and says so. Either way the
// sweep completes to the clean run's output.
func TestSalvageDegenerateFiles(t *testing.T) {
	const n = 12
	want, clean := cleanCheckpoint(t, ckPath(t), n)
	bounds := frameBoundaries(t, clean, salvageKey)
	if len(bounds) != n+1 {
		t.Fatalf("clean file has %d frames, want %d", len(bounds)-1, n)
	}

	cases := []struct {
		name    string
		cut     int  // file length to keep
		rows    int  // frames resume must adopt
		restart bool // the header is cut short
	}{
		{"zero length", 0, 0, true},
		{"cut in the magic", 5, 0, true},
		{"cut in the key", bounds[0] - 3, 0, true},
		{"header only", bounds[0], 0, false},
		{"boundary after frame 1", bounds[1], 1, false},
		{"boundary mid file", bounds[n/2], n / 2, false},
		{"boundary before last frame", bounds[n-1], n - 1, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := ckPath(t)
			if err := os.WriteFile(path, clean[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rep := checkRecovered(t, path, n, tc.rows, want, clean)
			if restarted := strings.Contains(rep.Reason, "restarting from job 0"); restarted != tc.restart || !tc.restart && rep.Reason != "" {
				t.Fatalf("report %+v: restarted %v, want %v", rep, restarted, tc.restart)
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
	if got := completeResumed(t, ck, n, nil); len(got) != n {
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
	if got := completeResumed(t, ck, n, nil); len(got) != n {
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
// checkpoint is scanned is neither a torn tail nor damage, so resume
// may not adopt a prefix and truncate the file after it.
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
		if b, err := os.ReadFile(path); err != nil || string(b) != string(clean) {
			t.Fatalf("a failed read after %d bytes changed the file (%d of %d bytes left)", after, len(b), len(clean))
		}
	}
}
