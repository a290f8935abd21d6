package specdsm

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: strings, signed and unsigned integers (negative and wide ones
// too), floats (cycling through a NaN with a payload, -0, and ordinary
// values), slices of two elements, and nested structs. A field of any
// other kind is an error, so a new field cannot slip past the codec
// tests unnoticed.
func fillDistinct(v reflect.Value, next *uint64) error {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Int, reflect.Int64:
		x := int64(n) << (n % 40)
		if n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(n<<(n%50) | n)
	case reflect.Float64:
		switch n % 3 {
		case 0:
			v.SetFloat(math.Float64frombits(0x7ff8000000000000 | n))
		case 1:
			v.SetFloat(math.Copysign(0, -1))
		default:
			v.SetFloat(float64(n) + 0.25)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			if err := fillDistinct(v.Index(i), next); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if err := fillDistinct(v.Field(i), next); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("fillDistinct: unhandled kind %v (%v): teach the codec and this test the new field", v.Kind(), v.Type())
	}
	return nil
}

// equalBits compares two values field by field, floats by their bit
// patterns (so NaN payloads and -0 must survive exactly). It returns
// the path of the first difference, or "".
func equalBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path + ".len"
		}
		for i := range a.Len() {
			if d := equalBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if d := equalBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return path
		}
	}
	return ""
}

// TestRunResultCodecRoundTripsEveryField fills every RunResult and
// PredictorResult field with a distinct non-zero value and requires the
// codec to bring each back bit for bit. A field added to either struct
// without a codec change decodes as zero and fails here.
func TestRunResultCodecRoundTripsEveryField(t *testing.T) {
	var want RunResult
	var next uint64
	if err := fillDistinct(reflect.ValueOf(&want).Elem(), &next); err != nil {
		t.Fatal(err)
	}
	b, err := want.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("prefix")) {
		t.Fatal("AppendBinary overwrote the buffer it appends to")
	}
	var got RunResult
	if err := got.UnmarshalBinary(b[len("prefix"):]); err != nil {
		t.Fatal(err)
	}
	if d := equalBits(reflect.ValueOf(want), reflect.ValueOf(got), "RunResult"); d != "" {
		t.Fatalf("%s did not survive the codec", d)
	}
	for cut := range len(b) - len("prefix") {
		if err := new(RunResult).UnmarshalBinary(b[len("prefix") : len("prefix")+cut]); err == nil {
			t.Fatalf("a %d-byte prefix of the encoding decoded", cut)
		}
	}
	if err := new(RunResult).UnmarshalBinary(append(b[len("prefix"):], 0)); err == nil {
		t.Fatal("an encoding with a trailing byte decoded")
	}
}

// FuzzRowCodec feeds arbitrary bytes to RunResult.UnmarshalBinary: it
// may not panic, a decoded row may not hold more than its input's size
// in strings and predictors (no allocation past the input length), and
// every encoding that decodes round-trips — re-encoding and decoding
// gives the same row and the same bytes.
func FuzzRowCodec(f *testing.F) {
	var full RunResult
	var next uint64
	if err := fillDistinct(reflect.ValueOf(&full).Elem(), &next); err != nil {
		f.Fatal(err)
	}
	for _, r := range []*RunResult{&full, {Workload: "em3d", Mode: ModeSWI, Nodes: 16, Cycles: 12345}} {
		b, _ := r.AppendBinary(nil)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r RunResult
		if r.UnmarshalBinary(data) != nil {
			return
		}
		if len(r.Predictors) > len(data) || len(r.Workload)+len(r.Mode) > len(data) {
			t.Fatalf("a %d-byte row decoded to %d predictors and %d string bytes",
				len(data), len(r.Predictors), len(r.Workload)+len(r.Mode))
		}
		b, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var again RunResult
		if err := again.UnmarshalBinary(b); err != nil {
			t.Fatalf("re-encoded row does not decode: %v", err)
		}
		if d := equalBits(reflect.ValueOf(r), reflect.ValueOf(again), "RunResult"); d != "" {
			t.Fatalf("%s changed across a round trip", d)
		}
		if b2, _ := again.AppendBinary(nil); !bytes.Equal(b, b2) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
