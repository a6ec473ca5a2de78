package dtd

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"castencil/internal/runtime"
)

func run(t *testing.T, ins *Inserter, workers int) *runtime.Result {
	t.Helper()
	g, err := ins.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(g, runtime.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChainAcrossNodes(t *testing.T) {
	// x starts at 1 on node 0; each task increments it on a rotating node.
	ins := New(3)
	ins.Seed("x", 0, []float64{1})
	for i := 0; i < 12; i++ {
		ins.Insert("inc", i%3, func(c Ctx) {
			v := c.Read("x")
			c.Write("x", []float64{v[0] + 1})
		}, RW("x"))
	}
	res := run(t, ins, 2)
	got, err := ins.Fetch(res.Stores, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 13 {
		t.Errorf("x = %v, want 13", got[0])
	}
	if res.Messages == 0 {
		t.Error("cross-node chain must communicate")
	}
}

func TestFanOutReadersThenReduce(t *testing.T) {
	ins := New(2)
	ins.Seed("src", 0, []float64{2, 3, 4})
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("part%d", i)
		i := i
		ins.Insert("scale", i%2, func(c Ctx) {
			v := c.Read("src")
			c.Write(key, []float64{v[i%3] * float64(i+1)})
		}, R("src"), W(key))
	}
	ins.Insert("sum", 1, func(c Ctx) {
		total := 0.0
		for i := 0; i < 6; i++ {
			total += c.Read(fmt.Sprintf("part%d", i))[0]
		}
		c.Write("total", []float64{total})
	}, R("part0"), R("part1"), R("part2"), R("part3"), R("part4"), R("part5"), W("total"))
	res := run(t, ins, 3)
	got, err := ins.Fetch(res.Stores, "total")
	if err != nil {
		t.Fatal(err)
	}
	// parts: 2*1, 3*2, 4*3, 2*4, 3*5, 4*6 = 2+6+12+8+15+24 = 67
	if got[0] != 67 {
		t.Errorf("total = %v, want 67", got[0])
	}
}

func TestAntiDependencyOrdering(t *testing.T) {
	// A reader of version 1 must run before the writer of version 2
	// (write-after-read token), observable through execution order.
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	ins := New(2)
	ins.Seed("d", 0, []float64{5})
	ins.Insert("reader", 1, func(c Ctx) {
		record("reader")
		if v := c.Read("d"); v[0] != 5 {
			panic("reader saw wrong version")
		}
	}, R("d"))
	ins.Insert("writer", 0, func(c Ctx) {
		record("writer")
		c.Write("d", []float64{6})
	}, W("d"))
	run(t, ins, 2)
	if len(order) != 2 || order[0] != "reader" {
		t.Errorf("order = %v, want reader before writer", order)
	}
}

func TestVersionsIsolateReaders(t *testing.T) {
	// Two generations of readers see their own versions.
	ins := New(2)
	ins.Seed("v", 0, []float64{10})
	seen := make([]float64, 2)
	ins.Insert("r0", 1, func(c Ctx) { seen[0] = c.Read("v")[0] }, R("v"))
	ins.Insert("bump", 0, func(c Ctx) { c.Write("v", []float64{c.Read("v")[0] + 1}) }, RW("v"))
	ins.Insert("r1", 1, func(c Ctx) { seen[1] = c.Read("v")[0] }, R("v"))
	run(t, ins, 2)
	if seen[0] != 10 || seen[1] != 11 {
		t.Errorf("readers saw %v, want [10 11]", seen)
	}
}

func TestMultipleReadersSameRemoteNode(t *testing.T) {
	// Two readers on the same node pull the same remote version: the
	// second delivery must be a no-op, not a double-Put panic.
	ins := New(2)
	ins.Seed("k", 0, []float64{7})
	for i := 0; i < 4; i++ {
		ins.Insert("read", 1, func(c Ctx) {
			if c.Read("k")[0] != 7 {
				panic("bad value")
			}
		}, R("k"))
	}
	res := run(t, ins, 2)
	if res.Completed != 5 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestErrors(t *testing.T) {
	ins := New(1)
	ins.Insert("r", 0, func(Ctx) {}, R("missing"))
	if _, err := ins.Graph(); err == nil || !strings.Contains(err.Error(), "before any write") {
		t.Errorf("read-before-write not reported: %v", err)
	}

	ins = New(1)
	ins.Insert("t", 2, func(Ctx) {})
	if _, err := ins.Graph(); err == nil {
		t.Error("invalid node not reported")
	}

	ins = New(1)
	ins.Seed("k", 0, nil)
	ins.Insert("dup", 0, func(Ctx) {}, R("k"), R("k"))
	if _, err := ins.Graph(); err == nil {
		t.Error("duplicate access not reported")
	}

	ins = New(1)
	ins.Insert("bad", 0, func(Ctx) {}, Access{Key: "k", Mode: Mode(9)})
	if _, err := ins.Graph(); err == nil {
		t.Error("invalid mode not reported")
	}
}

// TestInsertAfterGraph checks an inserter whose graph was already built
// reports an error, instead of panicking, on further inserts and builds.
func TestInsertAfterGraph(t *testing.T) {
	ins := New(1)
	ins.Seed("x", 0, []float64{1})
	if _, err := ins.Graph(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Graph(); err == nil {
		t.Error("second Graph accepted")
	}
	ins2 := New(1)
	ins2.Seed("x", 0, []float64{1})
	if _, err := ins2.Graph(); err != nil {
		t.Fatal(err)
	}
	ins2.Insert("inc", 0, func(c Ctx) {}, RW("x"))
	if _, err := ins2.Graph(); err == nil {
		t.Error("Insert after Graph accepted")
	}
}

func TestUndeclaredAccessPanicsInBody(t *testing.T) {
	ins := New(1)
	ins.Seed("a", 0, []float64{1})
	ins.Insert("sneaky", 0, func(c Ctx) { c.Read("a") }) // no R("a") declared
	g, err := ins.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Run(g, runtime.Options{}); err == nil {
		t.Error("undeclared read must fail the run")
	}
}

func TestFetchErrors(t *testing.T) {
	ins := New(1)
	if _, err := ins.Fetch(nil, "never"); err == nil {
		t.Error("fetch of unwritten key must fail")
	}
}

func TestModeString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" || Mode(9).String() != "invalid" {
		t.Error("mode names")
	}
}

// TestJacobi1DViaDTD writes a 1D three-point Jacobi solver in the DTD
// style — tiles as keys, halo cells read via In accesses — and checks the
// result against a direct sequential computation. This demonstrates that
// the inferred dataflow carries a real (if small) stencil computation
// across nodes.
func TestJacobi1DViaDTD(t *testing.T) {
	const (
		tiles = 4
		tw    = 8 // tile width
		steps = 6
		nodes = 2
	)
	n := tiles * tw
	// Sequential reference.
	ref := make([]float64, n+2) // ring of zeros
	for i := 0; i < n; i++ {
		ref[i+1] = float64(i%5) * 0.25
	}
	next := make([]float64, n+2)
	for s := 0; s < steps; s++ {
		for i := 1; i <= n; i++ {
			next[i] = 0.5*ref[i] + 0.25*ref[i-1] + 0.25*ref[i+1]
		}
		ref, next = next, ref
	}

	// DTD version: one RW data key per tile (touched only by the tile's
	// own chain) and per-sweep edge keys, because sequential insertion
	// semantics would otherwise turn Jacobi into Gauss-Seidel — a tile
	// inserted after its neighbor would read the neighbor's *already
	// updated* edge. Double-buffering in key space keeps the sweeps apart.
	ins := New(nodes)
	node := func(tile int) int { return tile * nodes / tiles }
	key := func(tile int) string { return fmt.Sprintf("tile%d", tile) }
	lkey := func(tile, sweep int) string { return fmt.Sprintf("l%d@%d", tile, sweep) }
	rkey := func(tile, sweep int) string { return fmt.Sprintf("r%d@%d", tile, sweep) }
	for tl := 0; tl < tiles; tl++ {
		vals := make([]float64, tw)
		for i := range vals {
			vals[i] = float64((tl*tw+i)%5) * 0.25
		}
		ins.Seed(key(tl), node(tl), vals)
		ins.Seed(lkey(tl, 0), node(tl), []float64{vals[0]})
		ins.Seed(rkey(tl, 0), node(tl), []float64{vals[tw-1]})
	}
	for s := 0; s < steps; s++ {
		for tl := 0; tl < tiles; tl++ {
			tl, s := tl, s
			accesses := []Access{RW(key(tl)), W(lkey(tl, s+1)), W(rkey(tl, s+1))}
			if tl > 0 {
				accesses = append(accesses, R(rkey(tl-1, s)))
			}
			if tl < tiles-1 {
				accesses = append(accesses, R(lkey(tl+1, s)))
			}
			ins.Insert("step", node(tl), func(c Ctx) {
				cur := c.Read(key(tl))
				out := make([]float64, tw)
				left, right := 0.0, 0.0
				if tl > 0 {
					left = c.Read(rkey(tl-1, s))[0]
				}
				if tl < tiles-1 {
					right = c.Read(lkey(tl+1, s))[0]
				}
				for i := 0; i < tw; i++ {
					l := left
					if i > 0 {
						l = cur[i-1]
					}
					r := right
					if i < tw-1 {
						r = cur[i+1]
					}
					out[i] = 0.5*cur[i] + 0.25*l + 0.25*r
				}
				c.Write(key(tl), out)
				c.Write(lkey(tl, s+1), []float64{out[0]})
				c.Write(rkey(tl, s+1), []float64{out[tw-1]})
			}, accesses...)
		}
	}
	res := run(t, ins, 2)
	for tl := 0; tl < tiles; tl++ {
		got, err := ins.Fetch(res.Stores, key(tl))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tw; i++ {
			if want := ref[tl*tw+i+1]; got[i] != want {
				t.Fatalf("tile %d cell %d: %v != %v (bitwise)", tl, i, got[i], want)
			}
		}
	}
}
