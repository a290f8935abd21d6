package specdsm

import (
	"reflect"
	"testing"

	"specdsm/internal/machine"
)

// TestArenaStudyRowEquivalence pins the run-arena contract at the study
// level: one arena reused across every (app, seed, mode) cell produces
// run results deep-equal to a freshly built machine per cell, for two
// applications, two seeds, and all three DSM modes. This is what lets
// the study drivers thread one arena per sweep worker while keeping
// output byte-identical to the fresh-build path.
func TestArenaStudyRowEquivalence(t *testing.T) {
	arena := machine.NewArena()
	for _, app := range []string{"em3d", "moldyn"} {
		for _, seed := range []int64{11, 23} {
			w, err := AppWorkload(app, WorkloadParams{
				Nodes: 8, Iterations: 3, Scale: 0.25, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{ModeBase, ModeFR, ModeSWI} {
				opts := MachineOptions{Mode: mode}
				fresh, err := Run(w, opts)
				if err != nil {
					t.Fatalf("%s/%s/seed%d fresh: %v", app, mode, seed, err)
				}
				reused, err := simulate(arena.Run, w, opts)
				if err != nil {
					t.Fatalf("%s/%s/seed%d arena: %v", app, mode, seed, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s/seed%d: arena row diverged from fresh build\nfresh:  %+v\nreused: %+v",
						app, mode, seed, fresh, reused)
				}
			}
		}
	}
	// Base, FR, and SWI differ in configuration; each gets one machine.
	if n := arena.Machines(); n != 3 {
		t.Errorf("arena holds %d machines, want 3 (one per mode)", n)
	}
}
