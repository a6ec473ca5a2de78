package core

import (
	"fmt"
	"math"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// schedVariants enumerates every ready-queue order the runtime offers, by
// the names ParseSched accepts on the command line.
func schedVariants() []string {
	return []string{"fifo", "lifo", "priority"}
}

// runSched executes a variant under one named scheduler and worker count.
func runSched(t *testing.T, v Variant, cfg Config, sched string, workers int) *RealResult {
	t.Helper()
	return runSchedCoalesce(t, v, cfg, sched, workers, ptg.CoalesceOff)
}

// runSchedCoalesce is runSched with an explicit halo-coalescing mode.
func runSchedCoalesce(t *testing.T, v Variant, cfg Config, sched string, workers int, coal ptg.CoalesceMode) *RealResult {
	t.Helper()
	p, err := runtime.ParseSched(sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunReal(v, cfg, runtime.Options{Workers: workers, Policy: p, Coalesce: coal})
	if err != nil {
		t.Fatalf("%s w=%d coalesce=%v: %v", sched, workers, coal, err)
	}
	if res.Exec.Dropped != 0 {
		t.Fatalf("%s w=%d coalesce=%v: dropped %d transfers", sched, workers, coal, res.Exec.Dropped)
	}
	return res
}

// assertGridsBitwiseEqual compares two gathered grids bit for bit — not
// within a tolerance. Scheduler choice must never change numerics: the
// dataflow graph fixes each task's inputs, so any divergence means a
// scheduler let a task run early or fed it the wrong buffer.
func assertGridsBitwiseEqual(t *testing.T, label string, want, got *grid.Tile) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: grid shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for r := 0; r < want.Rows; r++ {
		wr := want.Row(r, 0, want.Cols)
		gr := got.Row(r, 0, got.Cols)
		for c := range wr {
			if math.Float64bits(wr[c]) != math.Float64bits(gr[c]) {
				t.Fatalf("%s: grid[%d][%d] = %x, want %x (first divergence)",
					label, r, c, math.Float64bits(gr[c]), math.Float64bits(wr[c]))
			}
		}
	}
}

// TestSchedulerDeterminism is the cross-scheduler determinism suite: the
// Base and CA pipelines, run under every scheduler at 1, 2 and 4 workers
// per node and with halo coalescing both off and on, must produce
// bitwise-identical grids with zero dropped transfers. The reference is the
// shared FIFO queue with one worker and point-to-point delivery — the most
// sequential schedule the runtime can produce. Coalescing rides in the
// sweep because it must be invisible to numerics: it reorders and batches
// message traffic but never changes any task's inputs.
func TestSchedulerDeterminism(t *testing.T) {
	cases := []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"base", Base, Config{N: 24, TileRows: 6, P: 2, Steps: 8}},
		{"ca", CA, Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runSched(t, c.v, c.cfg, "fifo", 1)
			for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
				for _, sched := range schedVariants() {
					for _, workers := range []int{1, 2, 4} {
						if sched == "fifo" && workers == 1 && coal == ptg.CoalesceOff {
							continue // that is the reference itself
						}
						label := fmt.Sprintf("%s w=%d coalesce=%v", sched, workers, coal)
						got := runSchedCoalesce(t, c.v, c.cfg, sched, workers, coal)
						assertGridsBitwiseEqual(t, label, ref.Grid, got.Grid)
					}
				}
			}
		})
	}
}

// TestSchedulerDeterminismObservability spot-checks that the scheduler's
// per-node counters surface through RunReal: a multi-worker CA run must
// account every completed task to exactly one node and report a park count
// for every node.
func TestSchedulerDeterminismObservability(t *testing.T) {
	res := runSched(t, CA, Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 3}, "fifo", 4)
	tasks := 0
	for _, n := range res.Exec.NodeTasks {
		tasks += n
	}
	if tasks != res.Exec.Completed {
		t.Fatalf("per-node tasks sum to %d, completed %d", tasks, res.Exec.Completed)
	}
	if len(res.Exec.NodeParks) != len(res.Exec.NodeTasks) {
		t.Errorf("park counts for %d nodes, tasks for %d", len(res.Exec.NodeParks), len(res.Exec.NodeTasks))
	}
}
