package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"castencil/internal/leakcheck"
	"castencil/internal/ptg"
)

// buildSlowChain makes a single-node chain of tasks that each sleep a
// little, so a run is long enough to cancel mid-flight.
func buildSlowChain(t *testing.T, length int, nodes int, delay time.Duration) *ptg.Graph {
	t.Helper()
	b := ptg.NewBuilder(nodes)
	for i := 0; i < length; i++ {
		node := int32(i % nodes)
		_, err := b.AddTask(ptg.Task{
			ID:   tid("slow", i, 0, 0),
			Node: node,
			Run:  func(e ptg.Env) { time.Sleep(delay) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			dep := ptg.Dep{}
			if (i-1)%nodes != i%nodes {
				dep.Bytes = 1
				dep.Pack = func(e ptg.Env) []byte { return []byte{1} }
				dep.Unpack = func(e ptg.Env, data []byte) {}
			}
			if err := b.AddDep(tid("slow", i, 0, 0), tid("slow", i-1, 0, 0), dep); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunContextCancelStopsPromptly cancels a run mid-flight, once per
// Sched value: both run the one shared-queue scheduler (Options.Sched is a
// deprecated selector), and each must stop promptly without leaking.
func TestRunContextCancelStopsPromptly(t *testing.T) {
	for _, sched := range []Sched{SharedQueue, WorkStealing} {
		t.Run(fmt.Sprintf("sched=%v", sched), func(t *testing.T) {
			defer leakcheck.Guard(t)()
			g := buildSlowChain(t, 200, 2, time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{})
			var once sync.Once
			go func() {
				<-started
				cancel()
			}()
			_, err := Run(g, Options{
				Workers: 2,
				Sched:   sched,
				Ctx:     ctx,
				OnProgress: func(done, total int64) {
					once.Do(func() { close(started) })
				},
			})
			// Run is synchronous: by the time it returns, either the cancel
			// fired mid-run (expected) or the run somehow finished first.
			if err == nil {
				t.Fatal("run completed despite cancellation")
			}
			var ce *ptg.CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ptg.CancelError", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not unwrap to context.Canceled", err)
			}
			if ce.Engine != "runtime" {
				t.Errorf("engine = %q", ce.Engine)
			}
			if ce.Done >= ce.Total {
				t.Errorf("cancelled run claims %d of %d tasks done", ce.Done, ce.Total)
			}
		})
	}
}

func TestRunContextCancelBeforeStart(t *testing.T) {
	g := buildChain(t, 5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(g, Options{Ctx: ctx})
	var ce *ptg.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *ptg.CancelError", err)
	}
	if ce.Done != 0 || ce.Total != 5 {
		t.Errorf("pre-cancelled run reports %d/%d", ce.Done, ce.Total)
	}
}

func TestRunContextDeadline(t *testing.T) {
	defer leakcheck.Guard(t)()
	g := buildSlowChain(t, 500, 1, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := Run(g, Options{Workers: 1, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

func TestRunContextUncancelledIsHarmless(t *testing.T) {
	g := buildChain(t, 10, 2)
	var last atomic.Int64
	res, err := Run(g, Options{
		Workers: 2,
		Ctx:     context.Background(),
		OnProgress: func(done, total int64) {
			// Progress is monotone per callback site but callbacks race
			// across workers; keep the max.
			for {
				cur := last.Load()
				if done <= cur || last.CompareAndSwap(cur, done) {
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Errorf("completed = %d", res.Completed)
	}
	if got := last.Load(); got != 10 {
		t.Errorf("final progress callback reported %d, want 10", got)
	}
}
