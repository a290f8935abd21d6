package sweep_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"specdsm/internal/sweep"
)

// FuzzCheckpointFrames feeds arbitrary bytes to the checkpoint decoder
// as a file on disk and checks the two resume paths against each other:
// neither may panic, strict success implies salvage agrees frame for
// frame, and a key mismatch is a verdict both paths must share. Both
// paths leave the file truncated to the prefix they adopted, so that a
// strict resume of it then succeeds with the same rows.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		strictPath, salvagePath := filepath.Join(dir, "strict.ckpt"), filepath.Join(dir, "salvage.ckpt")
		for _, p := range []string{strictPath, salvagePath} {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Skip()
			}
		}
		strict, strictErr := sweep.ResumeCheckpoint(strictPath, key, 100)

		// Salvage must never panic and only hard-fails on a readable
		// header with a foreign key.
		salvaged, rep, salvageErr := sweep.SalvageCheckpoint(salvagePath, key, 100)
		if salvageErr != nil {
			if strictErr == nil {
				t.Fatalf("strict resume accepted what salvage rejected: %v", salvageErr)
			}
			return
		}
		if rep.Rows != salvaged.Rows() {
			t.Fatalf("salvage report says %d rows, checkpoint has %d", rep.Rows, salvaged.Rows())
		}
		if strictErr == nil {
			if strict.Rows() != salvaged.Rows() {
				t.Fatalf("strict sees %d frames, salvage kept %d", strict.Rows(), salvaged.Rows())
			}
			// Both paths dropped the same torn tail.
			a, _ := os.ReadFile(strictPath)
			b, _ := os.ReadFile(salvagePath)
			if string(a) != string(b) {
				t.Fatalf("strict left %d bytes, salvage %d", len(a), len(b))
			}
		}
		// The salvaged prefix must replay cleanly end to end (decode
		// failures surface as errors, never panics), and the truncated
		// file must now satisfy the strict path.
		replayErr := sweep.Run(context.Background(), sweep.New(1), 8, sweep.Options{Checkpoint: salvaged}, nil,
			func(_ context.Context, _ struct{}, i int) (row, error) { return mkRow(i), nil },
			func(i int, v row) error { return nil })
		_ = replayErr // may fail (e.g. valid CRC, alien row bytes) — it just must not panic
		if _, err := sweep.ResumeCheckpoint(salvagePath, key, 100); err != nil {
			t.Fatalf("strict resume rejects a salvaged file: %v", err)
		}
	})
}
