package protocol

import (
	"fmt"
	"strings"
	"testing"

	"specdsm/internal/mem"
)

// TestWritebackChecks drives the directory's writeback consistency
// checks directly. Voluntary writebacks and writebacks that answer a
// recall pass through one owner check, one version check and one
// unsolicited check, so each fault is tried on both paths: against a
// quiescent entry (a capacity eviction) and against an entry whose read
// recall is outstanding. The unsolicited fault has a path of its own on
// each side: a non-voluntary writeback with no transaction, and a
// voluntary one while the entry runs a grant rather than a recall.
func TestWritebackChecks(t *testing.T) {
	const owner, reader = mem.NodeID(1), mem.NodeID(2)
	cases := []struct {
		name      string
		busy      string // the entry's transaction: "" (quiescent), "recall" or "grant"
		src       mem.NodeID
		version   uint64 // the entry is at version 1
		voluntary bool
		panics    string // "" for a writeback that must be accepted
	}{
		{name: "eviction/valid", src: owner, version: 1, voluntary: true},
		{name: "recall/valid", busy: "recall", src: owner, version: 1},
		{name: "eviction/unsolicited", src: owner, version: 1, panics: "unsolicited writeback"},
		{name: "grant/unsolicited", busy: "grant", src: owner, version: 1, voluntary: true, panics: "unsolicited writeback"},
		{name: "eviction/non-owner", src: reader, version: 1, voluntary: true, panics: "but directory says Exclusive owner 1"},
		{name: "recall/non-owner", busy: "recall", src: reader, version: 1, panics: "but directory says Exclusive owner 1"},
		{name: "eviction/stale-version", src: owner, version: 0, voluntary: true, panics: "writeback version 0 != directory 1"},
		{name: "recall/stale-version", busy: "recall", src: owner, version: 0, panics: "writeback version 0 != directory 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3)
			addr := mem.MakeAddr(0, 0)
			h.write(owner, addr)
			d := h.sys.Node(0).dir
			ei, ok := d.lookupIdx(addr)
			if !ok {
				t.Fatal("no directory entry after the write")
			}
			switch tc.busy {
			case "grant":
				d.startTrans(&d.hot[ei], trans{kind: transGrant, requester: owner})
			case "recall":
				d.startTrans(&d.hot[ei], trans{kind: transReadRecall, requester: reader, reqKind: mem.ReqRead})
			}
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				d.processWriteback(tc.src, Msg{Kind: MsgWriteback, Addr: addr, Version: tc.version, Voluntary: tc.voluntary})
				return ""
			}()
			switch {
			case tc.panics == "" && got != "":
				t.Fatalf("valid writeback panicked: %s", got)
			case tc.panics != "" && !strings.Contains(got, tc.panics):
				t.Fatalf("panic = %q, want one containing %q", got, tc.panics)
			}
			if tc.panics == "" {
				e := h.sys.InspectEntry(addr)
				if e.Owner == owner {
					t.Fatalf("accepted writeback left %d the owner: %+v", owner, e)
				}
			}
		})
	}
}
