package specdsm

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: strings (a predictor kind cycles through the valid kinds),
// signed and unsigned integers (negative and wide ones too), slices of
// two elements, and nested structs. A field of any other kind is an
// error, so a new field cannot slip past the codec tests unnoticed.
func fillDistinct(v reflect.Value, next *uint64) error {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.String:
		if v.Type() == reflect.TypeFor[PredictorKind]() {
			v.SetString(string(Kinds()[n%3]))
		} else {
			v.SetString(fmt.Sprintf("s%d", n))
		}
	case reflect.Int, reflect.Int64:
		x := int64(n) << (n % 40)
		if n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(n<<(n%50) | n)
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

// TestRunResultCodecRoundTripsEveryField fills every RunResult and
// PredictorResult field with a distinct non-zero value and requires the
// codec to bring each back exactly. A field added to either struct
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
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("row did not survive the codec:\nwant %+v\ngot  %+v", want, got)
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

// TestRunResultCodecRefusesUnknownKind requires decoding to refuse a
// row whose predictor kind is not Cosmos, MSP or VMSP: no ratio method
// could interpret it.
func TestRunResultCodecRefusesUnknownKind(t *testing.T) {
	for _, kind := range []PredictorKind{"", "Oracle", "msp"} {
		r := RunResult{Workload: "em3d", Predictors: []PredictorResult{{Kind: MSP, Depth: 1}, {Kind: kind, Depth: 1}}}
		b, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := new(RunResult).UnmarshalBinary(b); err == nil {
			t.Errorf("a row with predictor kind %q decoded", kind)
		}
	}
}

// TestRowEncodingSize pins what a row costs on the wire: em3d at 16
// nodes, scale 1.0, seed 1, as a Base row with the nine observers of
// Figures 7-8 and Tables 3-4, and as an SWI row with its active
// predictor. Counts only, no floats: 225 and 71 bytes.
func TestRowEncodingSize(t *testing.T) {
	wl, err := AppWorkload("em3d", WorkloadParams{Nodes: 16, Scale: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts MachineOptions
		max  int
	}{
		{MachineOptions{Mode: ModeBase, Observers: observers([]int{1, 2, 4})}, 225},
		{MachineOptions{Mode: ModeSWI}, 71},
	} {
		r, err := Run(wl, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > tc.max {
			t.Errorf("%s row with %d predictors encodes in %d bytes, want at most %d", tc.opts.Mode, len(r.Predictors), len(b), tc.max)
		}
	}
}

// FuzzRowCodec feeds arbitrary bytes to RunResult.UnmarshalBinary: it
// may not panic, a decoded row may not hold more than its input's size
// in strings and predictors (no allocation past the input length),
// every ratio of a decoded row is a number, and every encoding that
// decodes round-trips — re-encoding and decoding gives the same row and
// the same bytes.
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
		ratios := []float64{r.RequestShare()}
		for _, p := range r.Predictors {
			ratios = append(ratios, p.Accuracy(), p.Coverage(), p.CorrectFraction(), p.EntriesPerBlock(), p.BytesPerBlock())
		}
		for _, x := range ratios {
			if math.IsNaN(x) {
				t.Fatalf("a decoded row has a NaN ratio: %+v", r)
			}
		}
		b, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var again RunResult
		if err := again.UnmarshalBinary(b); err != nil {
			t.Fatalf("re-encoded row does not decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("row changed across a round trip:\nwas %+v\nnow %+v", r, again)
		}
		if b2, _ := again.AppendBinary(nil); !bytes.Equal(b, b2) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
