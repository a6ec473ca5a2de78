package core

import "testing"

// buildShapes are the graph shapes of the repository benchmark's fine-grain
// and coarse-mesh workloads, both with bodies.
var buildShapes = []struct {
	name string
	v    Variant
	cfg  Config
}{
	{"fine-grain", Base, Config{N: 256, TileRows: 8, Steps: 20, WithBodies: true}},
	{"coarse-mesh", CA, Config{N: 2048, TileRows: 128, P: 2, Q: 1, Steps: 20, StepSize: 5, WithBodies: true}},
}

// BenchmarkBuildGraph measures task-graph construction on the benchmark's
// fine-grain and coarse-mesh shapes.
func BenchmarkBuildGraph(b *testing.B) {
	for _, s := range buildShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildGraph(s.v, s.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildGraphAllocBudget bounds graph construction at two allocations
// per task on the fine-grain shape: the graph's arrays are sized once, and
// only task bodies cost a per-task allocation.
func TestBuildGraphAllocBudget(t *testing.T) {
	s := buildShapes[0]
	g, err := BuildGraph(s.v, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := float64(len(g.Tasks))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildGraph(s.v, s.cfg); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / tasks; per > 2 {
		t.Errorf("BuildGraph: %.0f allocs for %.0f tasks = %.2f per task, budget 2", allocs, tasks, per)
	}
}
