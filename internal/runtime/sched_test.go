package runtime

import (
	"fmt"
	"testing"
	"time"

	"castencil/internal/leakcheck"
	"castencil/internal/ptg"
)

func TestParseSched(t *testing.T) {
	cases := []struct {
		in     string
		policy Policy
	}{
		// The removed work-stealing scheduler's spellings are deprecated
		// synonyms of fifo.
		{"steal", FIFO},
		{"ws", FIFO},
		{"work-stealing", FIFO},
		{"fifo", FIFO},
		{"shared", FIFO},
		{"LIFO", LIFO},
		{"priority", PriorityOrder},
		{"prio", PriorityOrder},
	}
	for _, c := range cases {
		p, err := ParseSched(c.in)
		if err != nil || p != c.policy {
			t.Errorf("ParseSched(%q) = %v,%v; want %v", c.in, p, err, c.policy)
		}
	}
	if _, err := ParseSched("bogus"); err == nil {
		t.Error("ParseSched accepted a bogus name")
	}
}

// The TestWorkStealing* tests below pass the deprecated WorkStealing
// selector, as callers written for the removed scheduler still do: such a
// run must execute on the shared queue with the same results, accounting,
// park behaviour and failure handling.

// TestWorkStealingChain re-runs the cross-node pipeline tests with the
// deprecated selector: same result, same message accounting.
func TestWorkStealingChain(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildChain(t, 20, 3)
		res, err := Run(g, Options{Workers: workers, Sched: WorkStealing})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Completed != 20 || res.Messages != 19 || res.Dropped != 0 {
			t.Fatalf("workers=%d: completed=%d messages=%d dropped=%d",
				workers, res.Completed, res.Messages, res.Dropped)
		}
		if got := res.Stores[19%3].Take("v19").(int); got != 20 {
			t.Errorf("workers=%d: final value = %d, want 20", workers, got)
		}
	}
}

// fanOutGraph is one root on node 0 fanning out to `fan` children, each
// followed by a chain of `depth` extra tasks. All tasks run `body`.
func fanOutGraph(t testing.TB, fan, depth int, body func()) *ptg.Graph {
	b := ptg.NewBuilder(1)
	root := ptg.TaskID{Class: "root"}
	if _, err := b.AddTask(ptg.Task{ID: root, Node: 0, Run: func(ptg.Env) {}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		prev := root
		for d := 0; d <= depth; d++ {
			id := ptg.TaskID{Class: "w", I: i, J: d}
			if _, err := b.AddTask(ptg.Task{ID: id, Node: 0, Run: func(ptg.Env) {
				if body != nil {
					body()
				}
			}}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddDep(id, prev, ptg.Dep{}); err != nil {
				t.Fatal(err)
			}
			prev = id
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStealStormTinyTasks is the release-storm stress, named for the
// work-stealing deques it once targeted: thousands of tiny tasks released
// from single points, eight workers contending on the one node queue, park
// and wake churn on every burst, and every worker gone at the end. Meant to
// run under -race (the CI race gate covers this package).
func TestStealStormTinyTasks(t *testing.T) {
	defer leakcheck.Guard(t)()
	for trial := 0; trial < 3; trial++ {
		g := fanOutGraph(t, 500, 3, nil)
		res, err := Run(g, Options{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 500*4 + 1
		if res.Completed != want || res.Dropped != 0 {
			t.Fatalf("trial %d: completed=%d dropped=%d want %d,0", trial, res.Completed, res.Dropped, want)
		}
		if res.NodeTasks[0] != want {
			t.Fatalf("trial %d: node ran %d tasks, want %d", trial, res.NodeTasks[0], want)
		}
	}
}

// TestWorkStealingWorkersOutnumberTasks: workers >> tasks must neither
// deadlock nor drop work — most workers just park and exit. The chain
// sleeps so the run outlives worker spin-up and the idle 15 must park, and
// every parked worker must wake and exit when the chain completes.
func TestWorkStealingWorkersOutnumberTasks(t *testing.T) {
	defer leakcheck.Guard(t)()
	g := fanOutGraph(t, 1, 5, func() { time.Sleep(time.Millisecond) })
	res, err := Run(g, Options{Workers: 16, Sched: WorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 7 || res.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d", res.Completed, res.Dropped)
	}
	if res.NodeParks[0] == 0 {
		t.Error("16 workers on a sequential 7-task chain should have parked at least once")
	}
}

// TestWorkStealingRandomDAGStress mirrors TestRandomDAGStress with the
// deprecated selector, cross-node messages included.
func TestWorkStealingRandomDAGStress(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		nodes := trial%3 + 1
		g := buildChain(t, 40, nodes)
		res, err := Run(g, Options{Workers: trial%4 + 1, Sched: WorkStealing, Policy: Policy(trial % 3)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Completed != 40 {
			t.Fatalf("trial %d: completed %d of 40", trial, res.Completed)
		}
	}
}

// TestWorkStealingPanicPropagates: a panic while siblings are parked must
// fail the run, and the parked siblings must wake and exit. The panicking
// task sleeps first so the three idle workers are normally parked when it
// fires.
func TestWorkStealingPanicPropagates(t *testing.T) {
	defer leakcheck.Guard(t)()
	b := ptg.NewBuilder(1)
	b.AddTask(ptg.Task{ID: ptg.TaskID{Class: "boom"}, Node: 0, Run: func(ptg.Env) {
		time.Sleep(5 * time.Millisecond)
		panic("kaboom")
	}})
	g, _ := b.Build()
	if _, err := Run(g, Options{Workers: 4, Sched: WorkStealing}); err == nil {
		t.Error("panic not propagated")
	}
}

// schedulerVariants enumerates every ready-queue order the runtime offers,
// for equivalence sweeps.
func schedulerVariants() []struct {
	Name string
	Opts Options
} {
	return []struct {
		Name string
		Opts Options
	}{
		{"shared-fifo", Options{Policy: FIFO}},
		{"shared-lifo", Options{Policy: LIFO}},
		{"shared-priority", Options{Policy: PriorityOrder}},
	}
}

// TestSchedulerEquivalence runs the same dataflow under every scheduler and
// checks the computed values agree — the runtime-level half of the
// determinism invariant (the stencil-level half lives in internal/core).
func TestSchedulerEquivalence(t *testing.T) {
	for _, sv := range schedulerVariants() {
		for _, workers := range []int{1, 2, 4} {
			g := buildChain(t, 24, 3)
			opts := sv.Opts
			opts.Workers = workers
			res, err := Run(g, opts)
			if err != nil {
				t.Fatalf("%s w=%d: %v", sv.Name, workers, err)
			}
			if res.Completed != 24 || res.Dropped != 0 {
				t.Fatalf("%s w=%d: completed=%d dropped=%d", sv.Name, workers, res.Completed, res.Dropped)
			}
			if got := res.Stores[23%3].Take("v23").(int); got != 24 {
				t.Errorf("%s w=%d: final value = %d, want 24", sv.Name, workers, got)
			}
		}
	}
}

// BenchmarkSchedulerThroughput measures pure scheduling overhead: a
// prebuilt single-node graph of tiny tasks (wide fan-out, short chains) run
// to completion on the shared queue across worker counts.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shared-w%d", workers), func(b *testing.B) {
			g := fanOutGraph(b, 64, 30, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(g, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Dropped != 0 {
					b.Fatalf("dropped %d", res.Dropped)
				}
			}
			b.ReportMetric(float64(64*31+1), "tasks/op")
		})
	}
}
