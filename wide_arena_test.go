package specdsm

import (
	"reflect"
	"testing"

	"specdsm/internal/machine"
)

// TestWideArenaRowEquivalence extends the arena-reuse contract of
// arena_equiv_test.go beyond the inline reader-vector tier: at N = 256
// and N = 1024 a machine reused through the arena must produce run
// results deep-equal to a freshly built one, across DSM modes. This pins
// both the wide-vector protocol paths and the predictor interner's
// clear-but-retain Reset.
func TestWideArenaRowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("wide machines are slow in -short mode")
	}
	arena := machine.NewArena()
	for _, nodes := range []int{256, 1024} {
		w, err := AppWorkload("em3d", WorkloadParams{
			Nodes: nodes, Iterations: 2, Scale: 0.05, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeBase, ModeSWI} {
			opts := MachineOptions{Mode: mode}
			fresh, err := Run(w, opts)
			if err != nil {
				t.Fatalf("N=%d/%s fresh: %v", nodes, mode, err)
			}
			reused, err := simulate(arena.Run, w, opts)
			if err != nil {
				t.Fatalf("N=%d/%s arena: %v", nodes, mode, err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("N=%d/%s: arena row diverged from fresh build\nfresh:  %+v\nreused: %+v",
					nodes, mode, fresh, reused)
			}
			if fresh.SpecReadsFR+fresh.SpecReadsSWI == 0 && mode == ModeSWI {
				t.Logf("N=%d: no speculative activity (workload too small?)", nodes)
			}
		}
	}
}
