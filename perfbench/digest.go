package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// committedJSON holds the committed digests: workload → first seed of
// a round → SHA-256 of that round's rendered study output.
//
//go:embed digests.json
var committedJSON []byte

// digestStore is the correctness gate. A round whose first seed has a
// committed digest must match it; any other round must match the
// digest the first run of that round recorded under dir.
type digestStore struct {
	dir       string
	committed map[string]map[string]string
}

func digest(out string) string {
	h := sha256.Sum256([]byte(out))
	return hex.EncodeToString(h[:])
}

func loadCommitted() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(committedJSON, &m); err != nil {
		return nil, fmt.Errorf("perfbench: digests.json: %w", err)
	}
	return m, nil
}

// check gates one round's rendered output. A mismatch wraps
// errMismatch; other errors are I/O failures of the store.
func (s *digestStore) check(workload string, base int64, out string) error {
	if s.committed == nil {
		m, err := loadCommitted()
		if err != nil {
			return err
		}
		s.committed = m
	}
	got := digest(out)
	key := strconv.FormatInt(base, 10)
	if want, ok := s.committed[workload][key]; ok {
		if got != want {
			return fmt.Errorf("perfbench: %s round at seed %d: digest %s, committed %s: %w", workload, base, got, want, errMismatch)
		}
		return nil
	}
	path := filepath.Join(s.dir, workload+"-"+key+".sha256")
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != got {
			return fmt.Errorf("perfbench: %s round at seed %d: digest %s, first run recorded %s: %w", workload, base, got, prev, errMismatch)
		}
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "digest-")
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	if _, err := tmp.WriteString(got); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("perfbench: %w", err)
	}
	return nil
}
