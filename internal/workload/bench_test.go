package workload

import "testing"

// fleetParams is the size the loopback-fleet benchmark generates at.
var fleetParams = Params{Nodes: 8, Scale: 0.05, Iterations: 2, Seed: 1}

// BenchmarkGenerate times one uncached generation of every app, at the
// fleet size and at 16 nodes / scale 1.0.
func BenchmarkGenerate(b *testing.B) {
	sizes := []struct {
		tag string
		p   Params
	}{
		{"fleet", fleetParams},
		{"n16", Params{Nodes: 16, Scale: 1.0, Seed: 1}},
	}
	for _, s := range sizes {
		for _, app := range Apps() {
			b.Run(s.tag+"/"+app.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					app.Generate(s.p)
				}
			})
		}
	}
}
