package sweep

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"specdsm/internal/fault"
)

// Checkpoint file format (version 3). A checkpoint persists the ordered
// prefix of jobs a streaming sweep has already settled — emitted rows
// and, in keep-going mode, recorded failures — so an interrupted sweep
// resumes by replaying the saved prefix and running only the remaining
// job indices. Because emission is strictly in index order, "which jobs
// are settled" is exactly "the first Rows() jobs" — at most one merge
// window of out-of-order work is lost on a crash.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "SPDSMCKP"
//	version  uint32   3
//	keyLen   uint32
//	key      [keyLen]byte   study identity (name + config + job count)
//	frames, one per settled job, each:
//	    len      uint32   payload byte count
//	    kind     uint8    0 = row (the row type's AppendBinary), 1 = failure (error text)
//	    frameCRC uint32   CRC-32 (IEEE) of len+kind+payload
//	    payload  [len]byte
//
// The file is append-only: the header is written once when the
// checkpoint is created, and every flush appends the pending frames at
// the end of the valid prefix and syncs. Nothing already on disk is
// rewritten, so a flush costs its own frames, not the whole file. A
// crash mid-flush leaves a torn final frame (the file ends inside it);
// resuming scans for the longest valid frame prefix and truncates what
// follows it, torn or damaged, before anything is appended, so new
// frames never land after garbage. Frames pending in memory between
// flushes are bounded by Every.
//
// The header records no frame count, length or whole-file CRC: an
// append-only file could not keep them true, and the per-frame CRCs
// find the valid prefix without them. A file of another format version
// is refused as a mismatch.
const (
	ckptMagic   = "SPDSMCKP"
	ckptVersion = 3
	// ckptFixed is the header size without the key: magic, version,
	// keyLen.
	ckptFixed = 8 + 4 + 4
)

// Frame kinds.
const (
	frameRow  = 0 // the row's binary encoding
	frameFail = 1 // the failure's error text (keep-going mode)
)

// frameOverhead is the per-frame byte cost beyond the payload:
// len (4) + kind (1) + frameCRC (4).
const frameOverhead = 9

// DefaultCheckpointEvery is the flush cadence used when Every is zero:
// pending frames are appended after this many newly settled jobs.
const DefaultCheckpointEvery = 16

// Sentinel errors for checkpoint validation. All are wrapped with the
// file path and a human-readable cause.
var (
	// ErrCheckpointExists reports that OpenCheckpoint found a previous
	// checkpoint file; the caller must either resume from it or remove it
	// — a fresh sweep never silently clobbers saved work.
	ErrCheckpointExists = errors.New("checkpoint file already exists (resume, or remove it to start over)")
	// ErrCheckpointCorrupt reports a file resume cannot use: one whose
	// first bytes are not a checkpoint's magic, or a saved frame that
	// fails to replay.
	ErrCheckpointCorrupt = errors.New("corrupt checkpoint file")
	// ErrCheckpointMismatch reports a well-formed checkpoint that does
	// not belong to this sweep: wrong version, wrong study key, or more
	// saved rows than the sweep has jobs.
	ErrCheckpointMismatch = errors.New("checkpoint does not match this sweep")
)

// KeyMismatchError is the specific ErrCheckpointMismatch for a
// well-formed checkpoint recorded under a different study key: the file
// is readable, it just belongs to a different configuration. Stored and
// Want hold the two keys; Diff explains which fields differ.
type KeyMismatchError struct {
	Path   string
	Stored string // key recorded in the file
	Want   string // key of the current sweep
}

func (e *KeyMismatchError) Error() string {
	return fmt.Sprintf("sweep: checkpoint %s: %v: recorded for a different study/config:\n  file: %s\n  want: %s",
		e.Path, ErrCheckpointMismatch, e.Stored, e.Want)
}

// Is makes the error satisfy errors.Is(err, ErrCheckpointMismatch).
func (e *KeyMismatchError) Is(target error) bool { return target == ErrCheckpointMismatch }

// Diff compares the two keys field by field (fields are the
// "|"-separated "name=value" segments study keys are built from) and
// returns one line per difference, of the form
// "name: checkpoint has X, this run has Y". Fields missing on one side
// are reported as "(absent)". A structurally alien key yields a single
// whole-key line.
func (e *KeyMismatchError) Diff() []string {
	stored := keyFields(e.Stored)
	want := keyFields(e.Want)
	if stored == nil || want == nil {
		return []string{fmt.Sprintf("key: checkpoint has %q, this run has %q", e.Stored, e.Want)}
	}
	names := make(map[string]bool, len(stored)+len(want))
	for k := range stored {
		names[k] = true
	}
	for k := range want {
		names[k] = true
	}
	ordered := make([]string, 0, len(names))
	for k := range names {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	var diff []string
	for _, k := range ordered {
		s, sok := stored[k]
		w, wok := want[k]
		if sok && wok && s == w {
			continue
		}
		if !sok {
			s = "(absent)"
		}
		if !wok {
			w = "(absent)"
		}
		diff = append(diff, fmt.Sprintf("%s: checkpoint has %s, this run has %s", k, s, w))
	}
	return diff
}

// keyFields splits a study key into its name=value fields, keyed by
// name. The leading study-name segment (no '=') is filed under "study".
// Returns nil if the key has no recognizable structure.
func keyFields(key string) map[string]string {
	if key == "" {
		return nil
	}
	fields := make(map[string]string)
	for i, seg := range strings.Split(key, "|") {
		if name, val, ok := strings.Cut(seg, "="); ok {
			fields[name] = val
		} else if i == 0 {
			fields["study"] = seg
		} else {
			return nil
		}
	}
	return fields
}

// SalvageReport describes what ResumeCheckpoint dropped to adopt a
// file's longest valid prefix (Checkpoint.Salvaged). Reason is empty
// when the file was fully valid (or absent) and nothing was dropped.
type SalvageReport struct {
	// Rows is the length of the valid prefix adopted (same as
	// Checkpoint.Rows()).
	Rows int
	// DroppedBytes counts bytes discarded after the valid prefix.
	DroppedBytes int64
	// Reason describes the first defect found, empty if none.
	Reason string
}

// Checkpoint persists the settled-prefix of one streaming sweep.
// Create one with OpenCheckpoint (fresh) or ResumeCheckpoint (continue
// from the longest valid prefix of an earlier run's file); pass it to
// Run (Options.Checkpoint), and frames are appended and flushed
// automatically. A Checkpoint is used from the delivering goroutine
// only and is not safe for concurrent use.
type Checkpoint struct {
	fsys  fault.FS
	path  string
	key   string
	every int

	rows int   // frames on disk
	size int64 // bytes on disk: the header plus rows whole frames

	pend     []byte // bytes not yet flushed: whole frames (and a new file's header)
	pendRows int

	salvaged SalvageReport // what ResumeCheckpoint dropped
}

// OpenCheckpoint starts a fresh checkpoint at path for the study
// identified by key, flushing every `every` frames (0 selects
// DefaultCheckpointEvery). An existing file at path is an error
// (ErrCheckpointExists): starting over must be an explicit choice. The
// header is written immediately, so an unwritable path fails before any
// simulation work is spent.
func OpenCheckpoint(path, key string, every int) (*Checkpoint, error) {
	return OpenCheckpointFS(nil, path, key, every)
}

// OpenCheckpointFS is OpenCheckpoint through an explicit filesystem
// seam (nil selects the real one); it exists so fault-injection tests
// can tear checkpoint writes.
func OpenCheckpointFS(fsys fault.FS, path, key string, every int) (*Checkpoint, error) {
	ck := newCheckpoint(fsys, path, key, every)
	if _, err := ck.fsys.Lstat(path); err == nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, ErrCheckpointExists)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	ck.pend = ck.appendHeader(ck.pend)
	if err := ck.Flush(); err != nil {
		return nil, err
	}
	return ck, nil
}

// ResumeCheckpoint continues from the checkpoint at path, adopting the
// longest valid frame prefix of the file. A missing file starts fresh
// (so the same resume-enabled command line works both before and after
// an interruption). Otherwise the header decides:
//
//   - first bytes that are not the magic: refused (ErrCheckpointCorrupt)
//     and left unchanged — the file may not be a checkpoint at all;
//   - another format version: refused (ErrCheckpointMismatch);
//   - a complete header recorded under another study key: refused
//     (*KeyMismatchError) — adopting its rows would mix configurations;
//   - any other header the file ends inside, or whose key length runs
//     past the end of the file: refused (ErrCheckpointCorrupt);
//   - an empty file, or a proper prefix of the header this sweep
//     writes: a torn first flush, restarted from job 0.
//
// Refused files are never written. After a valid header, the frames are
// scanned up to the first that is cut short (a torn tail, the normal
// outcome of a crash mid-flush), has a bad kind, or fails its CRC;
// everything before it is adopted, and the file is truncated there
// before anything is appended, so the sweep recomputes only what was
// lost. Salvaged reports what was dropped.
func ResumeCheckpoint(path, key string, every int) (*Checkpoint, error) {
	return ResumeCheckpointFS(nil, path, key, every)
}

// ResumeCheckpointFS is ResumeCheckpoint through an explicit filesystem
// seam (nil selects the real one).
func ResumeCheckpointFS(fsys fault.FS, path, key string, every int) (*Checkpoint, error) {
	ck := newCheckpoint(fsys, path, key, every)
	f, err := ck.fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return OpenCheckpointFS(fsys, path, key, every)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	var hdrErr, damage error
	if err == nil {
		hdrErr, damage, err = ck.scan(f, end)
	}
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	rep := &ck.salvaged
	switch {
	case hdrErr == errShort:
		// The file ends inside the header: nothing after it was ever
		// written, so no settled job is lost by restarting.
		rep.Reason = "header cut short (a torn first flush); restarting from job 0"
		ck.pend = ck.appendHeader(ck.pend)
	case hdrErr != nil:
		return nil, hdrErr
	case damage != nil:
		rep.Reason = fmt.Sprintf("%v; keeping the %d-frame prefix", damage, ck.rows)
	case end > ck.size:
		rep.Reason = fmt.Sprintf("%d trailing bytes beyond the last whole frame", end-ck.size)
	}
	rep.Rows, rep.DroppedBytes = ck.rows, end-ck.size
	if end > ck.size {
		if err := ck.fsys.Truncate(path, ck.size); err != nil {
			return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
		}
	}
	if err := ck.Flush(); err != nil {
		return nil, err
	}
	return ck, nil
}

func newCheckpoint(fsys fault.FS, path, key string, every int) *Checkpoint {
	if fsys == nil {
		fsys = fault.OS
	}
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpoint{fsys: fsys, path: path, key: key, every: every}
}

// Rows returns how many frames the file holds on disk (the resume
// point: jobs [0, Rows()) will be replayed, not re-run).
func (ck *Checkpoint) Rows() int { return ck.rows }

// Path returns the checkpoint file path.
func (ck *Checkpoint) Path() string { return ck.path }

// Salvaged reports what ResumeCheckpoint dropped from the file to
// adopt its valid prefix; its Reason is empty when nothing was.
func (ck *Checkpoint) Salvaged() SalvageReport { return ck.salvaged }

func (ck *Checkpoint) corrupt(format string, args ...any) error {
	return fmt.Errorf("sweep: checkpoint %s: %w: %s", ck.path, ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

func (ck *Checkpoint) mismatch(format string, args ...any) error {
	return fmt.Errorf("sweep: checkpoint %s: %w: %s", ck.path, ErrCheckpointMismatch, fmt.Sprintf(format, args...))
}

func (ck *Checkpoint) headerLen() int64 { return int64(ckptFixed + len(ck.key)) }

func (ck *Checkpoint) appendHeader(b []byte) []byte {
	b = append(b, ckptMagic...)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.key)))
	return append(b, ck.key...)
}

// scan reads the header and walks the frames of an open file of size
// end, adopting the longest valid prefix: ck.rows whole frames ending
// at ck.size (zero, zero when the header is unusable). hdrErr is
// errShort for a file that is a proper prefix of this sweep's header
// (a torn first flush), and otherwise reports a file that is not a
// checkpoint, has a damaged or foreign header, is of another version,
// or was recorded under another key (*KeyMismatchError). damage
// reports the first complete frame with a bad kind or CRC; a file that
// merely ends inside its final frame is a torn append, not damage. A damaged length
// field that points past the end of the file reads as torn too: its
// frames are recomputed, never misread. err reports a failed read,
// which must not pass for a short or damaged file: nothing may be
// truncated after it.
func (ck *Checkpoint) scan(f io.Reader, end int64) (hdrErr, damage, err error) {
	in := &readErr{r: f}
	defer func() {
		if in.err != nil {
			hdrErr, damage, err = nil, nil, in.err
		}
	}()
	r := bufio.NewReader(in)
	if err := ck.readHeader(r, end); err != nil {
		return err, nil, nil
	}
	ck.size = ck.headerLen()
	var buf []byte
	for {
		_, payload, err := readFrame(r, buf, end-ck.size)
		if err == errShort {
			return nil, nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("frame %d: %v", ck.rows, err), nil
		}
		buf = payload
		ck.rows++
		ck.size += int64(frameOverhead + len(payload))
	}
}

// readErr records the first read error other than the end of input.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// readHeader parses and validates the header of a file of size end.
// Only a file that is a proper prefix of the header this sweep writes
// is errShort: that is all a torn first flush can leave. Any other
// header the file ends inside — a key length damaged to point past the
// end of a long file, the start of another sweep's header — is refused,
// so resume never restarts a file that may hold saved frames.
func (ck *Checkpoint) readHeader(r io.Reader, end int64) error {
	want := ck.appendHeader(nil)
	if end < int64(len(want)) {
		got := make([]byte, end)
		n, _ := io.ReadFull(r, got)
		if bytes.HasPrefix(want, got[:n]) {
			return errShort
		}
		r = bytes.NewReader(got[:n])
	}
	var fixed [ckptFixed]byte
	if n, _ := io.ReadFull(r, fixed[:8]); string(fixed[:n]) != ckptMagic {
		return ck.corrupt("bad magic %q (not a sweep checkpoint file)", fixed[:n])
	}
	if _, err := io.ReadFull(r, fixed[8:]); err != nil {
		return ck.corrupt("header cut short, and not the start of this sweep's")
	}
	if version := binary.LittleEndian.Uint32(fixed[8:]); version != ckptVersion {
		return ck.mismatch("format version %d, this build reads version %d", version, ckptVersion)
	}
	keyLen := int64(binary.LittleEndian.Uint32(fixed[12:]))
	if keyLen > end-ckptFixed {
		return ck.corrupt("key length %d runs past the end of the %d-byte file", keyLen, end)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r, key); err != nil {
		return ck.corrupt("key cut short")
	}
	if string(key) != ck.key {
		return &KeyMismatchError{Path: ck.path, Stored: string(key), Want: ck.key}
	}
	return nil
}

// errShort reports an input that ends before the next frame does (at a
// frame boundary, or inside a torn frame) or inside the header.
var errShort = errors.New("frame cut short")

// readFrame reads and verifies one frame from r, which holds remain
// more bytes, reusing buf for the payload. It returns errShort if the
// input ends first, and any other defect as an error describing it. A
// length is checked against remain before anything is allocated.
func readFrame(r io.Reader, buf []byte, remain int64) (kind byte, payload []byte, err error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, errShort
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	if kind != frameRow && kind != frameFail {
		return 0, nil, fmt.Errorf("unknown frame kind %d", kind)
	}
	if int64(length) > remain-frameOverhead {
		return 0, nil, errShort
	}
	payload = append(buf[:0], make([]byte, length)...)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, errShort
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:5]), crc32.IEEETable, payload)
	if want := binary.LittleEndian.Uint32(hdr[5:9]); sum != want {
		return 0, nil, fmt.Errorf("frame CRC mismatch (file %08x, computed %08x)", want, sum)
	}
	return kind, payload, nil
}

// AppendRow adds one completed row to the pending frames, encoded with
// the row type's AppendBinary, and flushes when the cadence is reached.
// Frames must be appended in emission (index) order. A row type without
// the codec is an error.
func AppendRow[T any](ck *Checkpoint, v T) error {
	start := len(ck.pend)
	b, err := appendRow(append(ck.pend, make([]byte, frameOverhead)...), v)
	if err != nil {
		ck.pend = ck.pend[:start]
		return fmt.Errorf("sweep: checkpoint %s: encode row %d: %w", ck.path, ck.rows+ck.pendRows, err)
	}
	ck.pend = b
	return ck.seal(start, frameRow)
}

// AppendFail records a fatal job failure as the frame for its index, so
// a keep-going sweep's settled prefix advances past failed jobs and a
// resume neither re-runs nor forgets them. Only the error text is
// persisted.
func (ck *Checkpoint) AppendFail(err error) error {
	start := len(ck.pend)
	ck.pend = append(append(ck.pend, make([]byte, frameOverhead)...), err.Error()...)
	return ck.seal(start, frameFail)
}

// seal fills in the header of the pending frame starting at
// pend[start] and flushes when the cadence is reached.
func (ck *Checkpoint) seal(start int, kind byte) error {
	f := ck.pend[start:]
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(f)-frameOverhead))
	f[4] = kind
	sum := crc32.Update(crc32.ChecksumIEEE(f[:5]), crc32.IEEETable, f[frameOverhead:])
	binary.LittleEndian.PutUint32(f[5:9], sum)
	ck.pendRows++
	if ck.pendRows >= ck.every {
		return ck.Flush()
	}
	return nil
}

// Flush appends the pending frames to the file and syncs it; with
// nothing pending it does no I/O. The write lands at the end of the
// valid prefix, and a failed Flush keeps its frames pending, so a torn
// tail it left behind is overwritten by the next Flush (which writes
// those frames again, plus any newer ones).
func (ck *Checkpoint) Flush() error {
	if len(ck.pend) == 0 {
		return nil
	}
	f, err := ck.fsys.OpenWrite(ck.path)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	_, err = f.WriteAt(ck.pend, ck.size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	ck.size += int64(len(ck.pend))
	ck.rows += ck.pendRows
	ck.pend, ck.pendRows = ck.pend[:0], 0
	return nil
}

// recordedError is a failure replayed from a checkpoint: only the
// original error's text survived serialization.
type recordedError string

func (e recordedError) Error() string { return string(e) }

// ReplayCheckpoint decodes the saved frames in order and hands each row
// to emit with its original job index. A failure frame (written by a
// keep-going sweep) is an error here; Run replays those to its Fail
// sink.
func ReplayCheckpoint[T any](ck *Checkpoint, emit func(i int, v T) error) error {
	return replay(ck, emit, nil)
}

// replay is ReplayCheckpoint with a failure sink: rows go to emit,
// recorded failures to fail (carrying the persisted error text), each
// with its original job index. With a nil fail, a failure frame aborts
// the replay.
func replay[T any](ck *Checkpoint, emit func(i int, v T) error, fail FailFunc) error {
	if ck.rows == 0 {
		return nil
	}
	f, err := ck.fsys.Open(ck.path)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	defer f.Close()
	if _, err := f.Seek(ck.headerLen(), io.SeekStart); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	r, off := bufio.NewReader(f), ck.headerLen()
	var buf []byte
	for i := 0; i < ck.rows; i++ {
		kind, payload, err := readFrame(r, buf, ck.size-off)
		if err != nil {
			return ck.corrupt("replay: frame %d: %v", i, err)
		}
		buf, off = payload, off+int64(frameOverhead+len(payload))
		switch kind {
		case frameRow:
			v, err := decodeRow[T](payload)
			if err != nil {
				return ck.corrupt("replay: row %d does not decode: %v", i, err)
			}
			if err := emit(i, v); err != nil {
				return err
			}
		case frameFail:
			msg := string(payload)
			if fail == nil {
				return fmt.Errorf("sweep: checkpoint %s: job %d is a recorded failure (%s); resume with keep-going enabled or start over", ck.path, i, msg)
			}
			if err := fail(i, recordedError(msg)); err != nil {
				return err
			}
		}
	}
	return nil
}

// A row crosses a process or disk boundary — a transport's Settle, a
// checkpoint frame — only through its own binary codec: the row type
// implements encoding.BinaryAppender, and the row's pointer (or, for a
// pointer row type, the row itself) encoding.BinaryUnmarshaler. There
// is no fallback: Run refuses a checkpoint or transports for a row type
// without the codec.

// hasCodec reports whether rows of type T can be encoded and decoded.
func hasCodec[T any]() bool {
	t := reflect.TypeFor[T]()
	dst := reflect.PointerTo(t)
	if t.Kind() == reflect.Pointer {
		dst = t
	}
	return t.Implements(reflect.TypeFor[encoding.BinaryAppender]()) &&
		dst.Implements(reflect.TypeFor[encoding.BinaryUnmarshaler]())
}

// appendRow appends v's binary encoding to b.
func appendRow[T any](b []byte, v T) ([]byte, error) {
	enc, ok := any(v).(encoding.BinaryAppender)
	if !ok {
		return b, fmt.Errorf("row type %T has no AppendBinary", v)
	}
	return enc.AppendBinary(b)
}

// decodeRow decodes one appendRow encoding into a fresh row.
func decodeRow[T any](b []byte) (T, error) {
	var v T
	dst := any(&v)
	if t := reflect.TypeFor[T](); t.Kind() == reflect.Pointer {
		v = reflect.New(t.Elem()).Interface().(T)
		dst = v
	}
	dec, ok := dst.(encoding.BinaryUnmarshaler)
	if !ok {
		return v, fmt.Errorf("row type %T has no UnmarshalBinary", v)
	}
	return v, dec.UnmarshalBinary(b)
}
