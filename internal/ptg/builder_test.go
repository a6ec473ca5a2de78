package ptg

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// depAdder adds a dependency either by task ID or by task index, so every
// validation case runs on both paths.
type depAdder func(b *Builder, cons, prod TaskID) error

var depPaths = []struct {
	name string
	add  depAdder
}{
	{"id", func(b *Builder, cons, prod TaskID) error { return b.AddDep(cons, prod, Dep{}) }},
	{"index", func(b *Builder, cons, prod TaskID) error {
		// An unknown ID maps to an out-of-range index.
		ci, ok := b.index[cons]
		if !ok {
			ci = int32(len(b.tasks))
		}
		pi, ok := b.index[prod]
		if !ok {
			pi = -1
		}
		return b.AddDepIdx(ci, pi, Dep{})
	}},
}

// TestBuilderValidationErrors runs every builder validation on both the ID
// and the index dependency path: each case must fail with an error naming
// the problem, never panic.
func TestBuilderValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(b *Builder, add depAdder) error
	}{
		{"duplicate ID", "duplicate", func(b *Builder, _ depAdder) error {
			b.AddTask(Task{ID: id("a", 0, 0, 0)})
			_, err := b.AddTask(Task{ID: id("a", 0, 0, 0)})
			return err
		}},
		{"node too large", "invalid node", func(b *Builder, _ depAdder) error {
			_, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 2})
			return err
		}},
		{"negative node", "invalid node", func(b *Builder, _ depAdder) error {
			_, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Node: -1})
			return err
		}},
		{"unknown producer", "unknown producer", func(b *Builder, add depAdder) error {
			b.AddTask(Task{ID: id("a", 0, 0, 0)})
			return add(b, id("a", 0, 0, 0), id("ghost", 0, 0, 0))
		}},
		{"unknown consumer", "unknown consumer", func(b *Builder, add depAdder) error {
			b.AddTask(Task{ID: id("a", 0, 0, 0)})
			return add(b, id("ghost", 0, 0, 0), id("a", 0, 0, 0))
		}},
		{"cross-node dep without bytes", "needs payload bytes", func(b *Builder, add depAdder) error {
			b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
			b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 1})
			return add(b, id("b", 0, 0, 0), id("a", 0, 0, 0))
		}},
		{"cycle", "cycle", func(b *Builder, add depAdder) error {
			b.AddTask(Task{ID: id("a", 0, 0, 0)})
			b.AddTask(Task{ID: id("b", 0, 0, 0)})
			b.AddTask(Task{ID: id("c", 0, 0, 0)})
			if err := add(b, id("b", 0, 0, 0), id("a", 0, 0, 0)); err != nil {
				return err
			}
			if err := add(b, id("c", 0, 0, 0), id("b", 0, 0, 0)); err != nil {
				return err
			}
			if err := add(b, id("b", 0, 0, 0), id("c", 0, 0, 0)); err != nil {
				return err
			}
			_, err := b.Build()
			return err
		}},
	}
	for _, p := range depPaths {
		for _, c := range cases {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				err := c.run(NewBuilder(2), p.add)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
}

// TestBuilderIndexOutOfRange checks the index path rejects indices past
// the tasks added so far, including ones a later AddTask would create.
func TestBuilderIndexOutOfRange(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask(Task{ID: id("a", 0, 0, 0)})
	for _, c := range [][2]int32{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
		if err := b.AddDepIdx(c[0], c[1], Dep{}); err == nil {
			t.Errorf("AddDepIdx(%d, %d) accepted", c[0], c[1])
		}
	}
}

// TestBuilderUnusableAfterBuild checks a builder refuses further use once
// it has built its graph — successfully or not — instead of panicking or
// mutating the graph it handed out.
func TestBuilderUnusableAfterBuild(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		b := NewBuilder(1)
		b.AddTask(Task{ID: id("a", 0, 0, 0)})
		b.AddTask(Task{ID: id("b", 0, 0, 0)})
		b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{})
		if cyclic {
			b.AddDep(id("a", 0, 0, 0), id("b", 0, 0, 0), Dep{})
		}
		g, err := b.Build()
		if (err != nil) != cyclic {
			t.Fatalf("cyclic=%v: Build err = %v", cyclic, err)
		}
		if _, err := b.AddTask(Task{ID: id("c", 0, 0, 0)}); err == nil {
			t.Errorf("cyclic=%v: AddTask after Build accepted", cyclic)
		}
		if err := b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{}); err == nil {
			t.Errorf("cyclic=%v: AddDep after Build accepted", cyclic)
		}
		if err := b.AddDepIdx(1, 0, Dep{}); err == nil {
			t.Errorf("cyclic=%v: AddDepIdx after Build accepted", cyclic)
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("cyclic=%v: second Build accepted", cyclic)
		}
		if g != nil {
			b.AllocSlot(0)
			if len(g.Tasks) != 2 || len(g.Tasks[1].Deps) != 1 || g.NodeSlots != nil {
				t.Errorf("built graph changed after Build: %d tasks, slots %v", len(g.Tasks), g.NodeSlots)
			}
		}
	}
}

// TestBuilderFlatLayout checks deps added out of consumer order keep their
// per-consumer insertion order, every task's Deps and Succs are capped
// sub-slices (appending to one cannot clobber a neighbor), and edges come
// out ordered by consumer then dep index.
func TestBuilderFlatLayout(t *testing.T) {
	b := NewBuilder(1)
	for _, c := range []string{"p", "q", "x", "y"} {
		b.AddTask(Task{ID: id(c, 0, 0, 0)})
	}
	p, q, x, y := id("p", 0, 0, 0), id("q", 0, 0, 0), id("x", 0, 0, 0), id("y", 0, 0, 0)
	for _, d := range []struct {
		cons, prod TaskID
		bytes      int
	}{{y, p, 1}, {x, q, 2}, {y, q, 3}, {x, p, 4}, {y, p, 5}} {
		if err := b.AddDep(d.cons, d.prod, Dep{Bytes: d.bytes}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bytesOf := func(ds []Dep) []int {
		var out []int
		for _, d := range ds {
			out = append(out, d.Bytes)
		}
		return out
	}
	if got := bytesOf(g.Tasks[2].Deps); !slices.Equal(got, []int{2, 4}) {
		t.Errorf("x deps = %v, want [2 4]", got)
	}
	if got := bytesOf(g.Tasks[3].Deps); !slices.Equal(got, []int{1, 3, 5}) {
		t.Errorf("y deps = %v, want [1 3 5]", got)
	}
	if want := []Edge{{2, 1}, {3, 0}, {3, 2}}; !slices.Equal(g.Tasks[0].Succs, want) {
		t.Errorf("p succs = %v, want %v", g.Tasks[0].Succs, want)
	}
	if want := []Edge{{2, 0}, {3, 1}}; !slices.Equal(g.Tasks[1].Succs, want) {
		t.Errorf("q succs = %v, want %v", g.Tasks[1].Succs, want)
	}
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if cap(tk.Deps) != len(tk.Deps) || cap(tk.Succs) != len(tk.Succs) {
			t.Errorf("task %d: Deps/Succs not capped (%d/%d, %d/%d)",
				i, len(tk.Deps), cap(tk.Deps), len(tk.Succs), cap(tk.Succs))
		}
	}
	if s := g.ComputeStats(); s.Deps != 5 || s.CriticalPathTasks != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLookupConcurrent checks Lookup is safe for concurrent readers (run
// under -race).
func TestLookupConcurrent(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 64; i++ {
		b.AddTask(Task{ID: id("t", i, 0, 0)})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if got, ok := g.Lookup(id("t", i, 0, 0)); !ok || got != int32(i) {
					t.Errorf("Lookup(%d) = %d, %v", i, got, ok)
				}
			}
		}()
	}
	wg.Wait()
}
