package specdsm

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specdsm/internal/sweep"
)

// nonZero sets v, a zero value, to some non-zero value of its type:
// a one-element slice, a pointer to a non-zero value, or — for a
// struct — a non-zero first field.
func nonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		nonZero(t, v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		nonZero(t, v.Elem())
	case reflect.Struct:
		nonZero(t, v.Field(0))
	default:
		t.Fatalf("no non-zero value for kind %s", v.Kind())
	}
}

// TestStudySpecKeyCoversEveryField guards the checkpoint identity: every
// spec field outside key:"-", down to the fields of the base workload
// and machine configuration, changes the key when it is set. A field
// the key missed would let a resume splice rows from a different study.
func TestStudySpecKeyCoversEveryField(t *testing.T) {
	base := studySpec{}.key(false, 1)
	var walk func(path string, typ reflect.Type, field func(reflect.Value) reflect.Value)
	walk = func(path string, typ reflect.Type, field func(reflect.Value) reflect.Value) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if f.Tag.Get("key") == "-" {
				continue
			}
			at := func(v reflect.Value) reflect.Value { return field(v).Field(i) }
			if f.Type.Kind() == reflect.Struct {
				walk(path+f.Name+".", f.Type, at)
				continue
			}
			var rs studySpec
			nonZero(t, at(reflect.ValueOf(&rs).Elem()))
			if rs.key(false, 1) == base {
				t.Errorf("setting %s%s leaves the checkpoint key unchanged", path, f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(studySpec{}), func(v reflect.Value) reflect.Value { return v })
}

// TestResumeRefusesChangedAxis changes one axis of a recorded study at
// a time: resuming must fail with a KeyMismatchError whose Diff names
// that axis, even when the job count is unchanged.
func TestResumeRefusesChangedAxis(t *testing.T) {
	recorded := studySpec{
		Study:      "grid",
		Seeds:      []int64{1, 2},
		Apps:       []string{"em3d", "ocean"},
		NodeCounts: []int{8, 16},
		Flights:    []int{20, 80},
		Modes:      []Mode{ModeBase, ModeSWI},
	}
	changes := map[string]func(*studySpec){
		"seeds":      func(rs *studySpec) { rs.Seeds = []int64{1, 3} },
		"apps":       func(rs *studySpec) { rs.Apps = []string{"em3d", "moldyn"} },
		"nodecounts": func(rs *studySpec) { rs.NodeCounts = []int{8, 32} },
		"flights":    func(rs *studySpec) { rs.Flights = []int{20, 200} },
		"modes":      func(rs *studySpec) { rs.Modes = []Mode{ModeBase, ModeFR} },
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			cfg := StudyConfig{CheckpointPath: filepath.Join(t.TempDir(), "ck")}
			n, _ := recorded.size()
			if _, err := cfg.checkpoint(recorded, n); err != nil {
				t.Fatal(err)
			}
			rs := recorded
			change(&rs)
			if m, _ := rs.size(); m != n {
				t.Fatalf("change altered the job count %d -> %d", n, m)
			}
			cfg.Resume = true
			_, err := cfg.checkpoint(rs, n)
			var km *sweep.KeyMismatchError
			if !errors.As(err, &km) {
				t.Fatalf("resume err = %v, want a KeyMismatchError", err)
			}
			diff := km.Diff()
			if len(diff) != 1 || !strings.HasPrefix(diff[0], name+": ") {
				t.Fatalf("Diff = %q, want one line naming %s", diff, name)
			}
		})
	}
}

// TestResumeRefusesPreGridPredictorCheckpoint pins the migration story:
// a predictor checkpoint recorded before studies became grids (keyed by
// depths, its rows AppPrediction) is refused loudly, naming the fields
// that moved, rather than replayed into the wrong row type.
func TestResumeRefusesPreGridPredictorCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	old := "specdsm/predictor|apps=em3d|nodes=16|scale=0.1|seed=1|depths=1|keepgoing=false|jobs=1"
	if _, err := sweep.OpenCheckpoint(path+".predictor", old, 0); err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{Apps: []string{"em3d"}, Scale: 0.1, Depths: []int{1}, CheckpointPath: path, Resume: true}
	err := PredictorStudyStream(cfg, func(int, AppPrediction) error {
		t.Fatal("a refused checkpoint delivered a row")
		return nil
	})
	var km *sweep.KeyMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("resume err = %v, want a KeyMismatchError", err)
	}
	diff := strings.Join(km.Diff(), "\n")
	for _, field := range []string{"depths: ", "opts.observers: "} {
		if !strings.Contains(diff, field) {
			t.Errorf("Diff does not name %q:\n%s", field, diff)
		}
	}
}

// TestResumeRefusesPreObserverSpeculationCheckpoint pins the fold of the
// predictor study into the speculation study: a speculation checkpoint
// recorded while its Base runs carried no observers is refused loudly,
// naming the one field that changed, rather than replayed into rows whose
// Base runs lack the predictor results Figures 7-8 and Tables 3-4 read.
func TestResumeRefusesPreObserverSpeculationCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	old := "specdsm/speculation|apps=em3d|modes=[base fr swi]|wp.nodes=16|wp.scale=0.1|wp.seed=1|keepgoing=false|jobs=3"
	if _, err := sweep.OpenCheckpoint(path+".speculation", old, 0); err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{Apps: []string{"em3d"}, Scale: 0.1, CheckpointPath: path, Resume: true}
	err := speculationStudyStream(cfg, func(int, appSpeculation) error {
		t.Fatal("a refused checkpoint delivered a row")
		return nil
	})
	var km *sweep.KeyMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("resume err = %v, want a KeyMismatchError", err)
	}
	if diff := km.Diff(); len(diff) != 1 || !strings.HasPrefix(diff[0], "opts.observers: ") {
		t.Fatalf("Diff = %q, want one line naming opts.observers", diff)
	}
}
