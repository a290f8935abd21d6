package protocol

import (
	"fmt"
	"slices"
	"testing"

	"specdsm/internal/mem"
)

// The coherence checker must catch what it exists to catch, not only
// stay quiet on correct runs. Each case below corrupts one version
// behind the protocol's back (white-box), then drives the real
// Access/serve paths into the checker and expects exactly its finding.

// lineOf returns node's cache line for addr, which must exist.
func lineOf(h *harness, node mem.NodeID, addr mem.BlockAddr) *lineHot {
	c := h.sys.Node(node).cache
	li, ok := c.lookupIdx(addr)
	if !ok {
		h.t.Fatalf("node %d has no line for %v", node, addr)
	}
	return &c.hot[li]
}

// entryOf returns addr's directory entry at its home, which must exist.
func entryOf(h *harness, addr mem.BlockAddr) *dirHot {
	d := h.sys.Node(addr.Home()).dir
	ei, ok := d.lookupIdx(addr)
	if !ok {
		h.t.Fatalf("no directory entry for %v", addr)
	}
	return &d.hot[ei]
}

var checkerCases = []struct {
	name string
	// run drives a 2-node system into one violation and returns its text.
	run func(h *harness) string
}{
	{"hit observes older version", func(h *harness) string {
		addr := mem.MakeAddr(1, 3)
		h.write(0, addr) // fill at version 1
		lineOf(h, 0, addr).version = 0
		h.read(0, addr) // hit
		return fmt.Sprintf("node 0 observed version 0 after 1 for %v", addr)
	}},
	{"fill observes older version", func(h *harness) string {
		addr := mem.MakeAddr(1, 3)
		h.write(0, addr) // fill at version 1
		h.read(1, addr)  // recall: the home shares it at version 1
		entryOf(h, addr).version = 0
		h.read(0, addr) // fill carries version 0
		return fmt.Sprintf("node 0 observed version 0 after 1 for %v", addr)
	}},
	{"remote grant out of sequence", func(h *harness) string {
		addr := mem.MakeAddr(1, 3)
		h.read(0, addr) // shared at version 0
		entryOf(h, addr).version = 4
		h.write(0, addr) // upgrade grants version 5
		return fmt.Sprintf("version grant 5 follows 0 for %v", addr)
	}},
	{"local grant out of sequence", func(h *harness) string {
		addr := mem.MakeAddr(0, 3)
		h.read(0, addr) // local fast path, version 0
		entryOf(h, addr).version = 4
		h.write(0, addr) // local fast path grants version 5
		return fmt.Sprintf("version grant 5 follows 0 for %v", addr)
	}},
	{"local hit observes older version", func(h *harness) string {
		addr := mem.MakeAddr(0, 3)
		h.write(0, addr) // local fast path grants version 1
		lineOf(h, 0, addr).version = 0
		h.read(0, addr) // hit
		return fmt.Sprintf("node 0 observed version 0 after 1 for %v", addr)
	}},
}

func TestCheckerCatchesViolations(t *testing.T) {
	for _, tc := range checkerCases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2)
			want := tc.run(h)
			if got := h.sys.Violations(); !slices.Equal(got, []string{want}) {
				t.Fatalf("violations = %q, want [%q]", got, want)
			}
		})
	}
}

func TestCheckerOffRecordsNothing(t *testing.T) {
	for _, tc := range checkerCases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2)
			h.sys.SetCoherenceChecking(false)
			tc.run(h)
			if got := h.sys.Violations(); len(got) != 0 {
				t.Fatalf("checking off, violations = %q", got)
			}
		})
	}
}

// TestCheckerForgetsOnReset runs the same trace twice on one system with
// a Reset between: the second run's versions restart at 1, which the
// checker would flag if it remembered the first run's.
func TestCheckerForgetsOnReset(t *testing.T) {
	h := newHarness(t, 2)
	remote, local := mem.MakeAddr(1, 3), mem.MakeAddr(0, 4)
	trace := func() {
		for i := 0; i < 3; i++ {
			h.write(0, remote)
			h.write(1, remote)
			h.write(0, local)
			h.write(1, local)
		}
		h.read(0, remote)
		h.read(0, local)
		h.finish()
	}
	trace()
	if got := entryOf(h, remote).version; got != 6 {
		t.Fatalf("first run reached version %d, want 6", got)
	}
	h.k.Reset()
	h.sys.Reset()
	trace()
}
