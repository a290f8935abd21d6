package fault

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
)

// File is the write side of the checkpoint FS seam: positioned writes
// (a flush appends its frames at the end of the valid prefix) and a
// sync.
type File interface {
	io.WriterAt
	io.Closer
	Sync() error
}

// ReadFile is the read side: sequential reads plus seeking (to size the
// file and to skip the header), which is all scan and replay use.
type ReadFile interface {
	io.Reader
	io.Seeker
	io.Closer
}

// FS is the filesystem seam the checkpoint layer writes and reads
// through. The production implementation is OS; NewFS wraps any FS with
// injected I/O faults.
type FS interface {
	// OpenWrite opens name for writing, creating it if it is missing.
	OpenWrite(name string) (File, error)
	Open(name string) (ReadFile, error)
	// Truncate cuts name to size bytes (dropping a torn tail).
	Truncate(name string, size int64) error
	Lstat(name string) (fs.FileInfo, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenWrite(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE, 0o644)
}
func (osFS) Open(name string) (ReadFile, error)     { return os.Open(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) Lstat(name string) (fs.FileInfo, error) { return os.Lstat(name) }

// NewFS wraps base (nil selects OS) with the injector's I/O fault
// schedule: writes may stop short, tearing the frames being appended.
// Decisions are drawn per operation from a counter, so a fixed seed
// yields a fixed fault script over the sequence of checkpoint writes.
// Reads are never faulted — read-side corruption is exercised by
// mutating real files instead (see the salvage tests).
func NewFS(in *Injector, base FS) FS {
	if base == nil {
		base = OS
	}
	return &faultFS{in: in, base: base}
}

type faultFS struct {
	in   *Injector
	base FS
	op   atomic.Uint64
}

func (f *faultFS) OpenWrite(name string) (File, error) {
	file, err := f.base.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *faultFS) Open(name string) (ReadFile, error)     { return f.base.Open(name) }
func (f *faultFS) Truncate(name string, size int64) error { return f.base.Truncate(name, size) }
func (f *faultFS) Lstat(name string) (fs.FileInfo, error) { return f.base.Lstat(name) }

// faultFile injects short writes: the fault writes a prefix of the
// buffer through to the underlying file and then errors, leaving a torn
// frame — exactly the state a crash mid-write leaves on disk.
type faultFile struct {
	fs *faultFS
	f  File
}

func (w *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if w.fs.in.writeFault(w.fs.op.Add(1)) {
		n, _ := w.f.WriteAt(p[:len(p)/2], off)
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	return w.f.WriteAt(p, off)
}

func (w *faultFile) Sync() error  { return w.f.Sync() }
func (w *faultFile) Close() error { return w.f.Close() }
