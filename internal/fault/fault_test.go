package fault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestDecisionsDeterministic pins the core contract: every decision is
// a pure function of (seed, site, index, attempt) — repeated queries and
// a second injector with the same seed agree exactly.
func TestDecisionsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	a.Transient, b.Transient = 0.3, 0.3
	a.Panic, b.Panic = 0.1, 0.1
	for i := 0; i < 200; i++ {
		for attempt := 0; attempt < 4; attempt++ {
			if a.JobTransient(i, attempt) != b.JobTransient(i, attempt) {
				t.Fatalf("transient(%d,%d) diverged across same-seed injectors", i, attempt)
			}
			if a.JobPanic(i, attempt) != a.JobPanic(i, attempt) {
				t.Fatalf("panic(%d,%d) not stable across repeated queries", i, attempt)
			}
		}
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in := New(7)
	in.Transient = 0.25
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if in.JobTransient(i, 0) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.20 || got > 0.30 {
		t.Fatalf("transient rate 0.25 produced %.3f over %d draws", got, n)
	}
}

func TestSitesIndependent(t *testing.T) {
	in := New(9)
	in.Transient, in.Panic = 0.5, 0.5
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if in.JobTransient(i, 0) == in.JobPanic(i, 0) {
			same++
		}
	}
	// Perfectly correlated sites would agree always; independent ones
	// agree about half the time.
	if same < n/3 || same > 2*n/3 {
		t.Fatalf("transient and panic sites agree %d/%d times — streams look correlated", same, n)
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.JobTransient(0, 0) || in.JobPanic(0, 0) {
		t.Fatal("nil injector injected a fault")
	}
	in.JobDelay(0, 0) // must not panic
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("seed=7,transient=0.2,panic=0.01,delay=0.5,delaymax=32,shortwrite=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 7 || in.Transient != 0.2 || in.Panic != 0.01 ||
		in.Delay != 0.5 || in.DelayMax != 32 || in.ShortWrite != 0.05 {
		t.Fatalf("spec parsed into %+v", in)
	}
	for _, bad := range []string{
		"", "transient", "transient=", "transient=1.5", "transient=-0.1",
		"seed=x", "bogus=1", "delaymax=0", "rename=0.1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestFaultyFSShortWrite pins the torn-frame shape: a faulted write
// persists a strict prefix of the buffer and reports ErrInjected.
func TestFaultyFSShortWrite(t *testing.T) {
	in := New(3)
	in.ShortWrite = 1.0 // every write faults
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fsys := NewFS(in, nil)
	f, err := fsys.OpenWrite(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 100)
	n, err := f.WriteAt(payload, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write err = %v, want ErrInjected", err)
	}
	if n >= len(payload) {
		t.Fatalf("short write wrote %d of %d bytes", n, len(payload))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != n {
		t.Fatalf("file holds %d bytes, write reported %d", len(b), n)
	}
}
