// Package wire is the bounded binary encoding shared by the shard
// protocol's frames (internal/remote) and the RunResult row codec that
// crosses shards and checkpoints: varints for integers, IEEE-754 bits
// for floats, and a uvarint length before every string, byte run or
// list.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed reports an encoding that is cut short, carries a bad
// varint or an oversized length, or has bytes left over.
var ErrMalformed = errors.New("wire: malformed encoding")

// AppendBytes appends p with its uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s with its uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat appends f's IEEE-754 bits, so NaN payloads and -0
// survive.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader decodes an encoding front to back. The first short or
// malformed field sticks in Err and every later read returns zero, so
// a decoder reads all its fields and checks Done once. Every length is
// checked against the bytes that remain before anything is allocated,
// so an encoding cannot demand more memory than its own size.
type Reader struct {
	B   []byte
	Err error
}

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = ErrMalformed
	}
	r.B = nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.B)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Count reads a list length, refusing one larger than the bytes that
// remain: every element takes at least one byte.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.B)) {
		r.fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte run; the result aliases the input
// (nil when empty).
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if n == 0 {
		return nil
	}
	p := r.B[:n:n]
	r.B = r.B[n:]
	return p
}

// Text reads a length-prefixed string.
func (r *Reader) Text() string { return string(r.Bytes()) }

// Float reads AppendFloat's eight bytes.
func (r *Reader) Float() float64 {
	if len(r.B) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.B))
	r.B = r.B[8:]
	return f
}

// Done reports the first decoding error, or one for bytes left over.
func (r *Reader) Done() error {
	if r.Err == nil && len(r.B) != 0 {
		r.Err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.B))
	}
	return r.Err
}
