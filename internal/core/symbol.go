package core

import (
	"fmt"

	"specdsm/internal/mem"
)

// MsgType enumerates the directory-incoming coherence message types that
// predictors may observe. Requests (Read/Write/Upgrade) are tracked by all
// predictors; acknowledgement types (AckInv, Writeback) only by Cosmos.
type MsgType uint8

const (
	// MsgInvalid marks an empty/cleared symbol slot.
	MsgInvalid MsgType = iota
	// MsgRead is a request for a read-only copy.
	MsgRead
	// MsgWrite is a request for a writable copy.
	MsgWrite
	// MsgUpgrade promotes a read-only copy to writable.
	MsgUpgrade
	// MsgAckInv is a sharer's response to a read-only invalidation.
	MsgAckInv
	// MsgWriteback is an owner's data response to a recall/invalidation.
	MsgWriteback
)

func (t MsgType) String() string {
	switch t {
	case MsgInvalid:
		return "-"
	case MsgRead:
		return "Read"
	case MsgWrite:
		return "Write"
	case MsgUpgrade:
		return "Upgrade"
	case MsgAckInv:
		return "ack"
	case MsgWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// IsRequest reports whether t is a memory request message.
func (t MsgType) IsRequest() bool {
	return t == MsgRead || t == MsgWrite || t == MsgUpgrade
}

// IsWriteLike reports whether t acquires write permission.
func (t MsgType) IsWriteLike() bool { return t == MsgWrite || t == MsgUpgrade }

// ReqMsgType converts a protocol request kind to the predictor alphabet.
func ReqMsgType(k mem.ReqKind) MsgType {
	switch k {
	case mem.ReqRead:
		return MsgRead
	case mem.ReqWrite:
		return MsgWrite
	case mem.ReqUpgrade:
		return MsgUpgrade
	default:
		panic(fmt.Sprintf("core: unknown request kind %v", k))
	}
}

// Observation is one incoming coherence message at the directory, as seen
// by a predictor.
type Observation struct {
	Type MsgType
	Node mem.NodeID
}

// Symbol is one element of a predictor's history/pattern alphabet. For
// Cosmos and MSP a symbol is a (type, node) pair. For VMSP a read run is a
// single symbol carrying the reader vector (Node is unused for vectors).
type Symbol struct {
	Type MsgType
	Node mem.NodeID
	Vec  mem.ReaderVec
}

// Equal reports exact symbol equality.
func (s Symbol) Equal(o Symbol) bool {
	return s.Type == o.Type && s.Node == o.Node && s.Vec.Equal(o.Vec)
}

func (s Symbol) String() string {
	if s.Type == MsgRead && !s.Vec.Empty() {
		return fmt.Sprintf("<Read,%v>", s.Vec)
	}
	return fmt.Sprintf("<%v,P%d>", s.Type, s.Node)
}

// Packed (type, node) layout for one 16-bit pattern-key slot: the message
// type in the low symTypeBits bits, the node id in the remaining 12 (wide
// enough for mem.MaxNodes-1). The reader vector is carried separately in
// the key (see patKey in twolevel.go).
const (
	symTypeBits = 4
	symTypeMask = 1<<symTypeBits - 1
)

// packTN encodes a (type, node) pair into one pattern-key slot.
func packTN(t MsgType, n mem.NodeID) uint16 {
	return uint16(t) | uint16(n)<<symTypeBits
}

// tnType extracts the message type from a packed slot.
func tnType(tn uint16) MsgType { return MsgType(tn & symTypeMask) }

// tnNode extracts the node id from a packed slot.
func tnNode(tn uint16) mem.NodeID { return mem.NodeID(tn >> symTypeBits) }

// pack encodes the symbol's (type, node) pair into one pattern-key slot.
func (s Symbol) pack() uint16 { return packTN(s.Type, s.Node) }
