package ptg

import "fmt"

// This file implements halo-bundle planning: grouping all cross-node
// dependencies that share a (source node, destination node, epoch) triple
// into a single coalesced message. The paper's CA scheme wins by aggregating
// many small halo messages into fewer large ones — this extends the same
// lever to the runtime's transport, collapsing the per-(neighbor, step)
// message storm to one message per neighbor pair per exchange epoch while
// leaving the dataflow semantics untouched (the receiver fans the member
// payloads out to exactly the deliveries a point-to-point run would make).

// CoalesceMode selects how the engines group cross-node dependencies into
// bundles.
type CoalesceMode uint8

const (
	// CoalesceOff sends one message per cross-node dependency (the
	// historical behavior; the zero value).
	CoalesceOff CoalesceMode = iota
	// CoalesceStep bundles all cross-node dependencies sharing a
	// (source node, destination node, producer epoch) triple into one
	// message. Building the bundle plan fails if bundling would deadlock
	// the graph (see Graph.Bundles).
	CoalesceStep
	// CoalesceAuto behaves like CoalesceStep when the graph admits a
	// deadlock-free bundle plan and silently falls back to CoalesceOff
	// otherwise (e.g. graphs whose tasks carry no epoch information).
	CoalesceAuto
)

// CoalesceNames lists the names ParseCoalesce accepts, for flag help text.
const CoalesceNames = "off, step, auto"

// ParseCoalesce maps a command-line mode name to a CoalesceMode.
func ParseCoalesce(name string) (CoalesceMode, error) {
	switch name {
	case "off", "none", "":
		return CoalesceOff, nil
	case "step":
		return CoalesceStep, nil
	case "auto":
		return CoalesceAuto, nil
	}
	return CoalesceOff, fmt.Errorf("ptg: unknown coalesce mode %q (valid: %s)", name, CoalesceNames)
}

func (m CoalesceMode) String() string {
	switch m {
	case CoalesceOff:
		return "off"
	case CoalesceStep:
		return "step"
	case CoalesceAuto:
		return "auto"
	}
	return fmt.Sprintf("CoalesceMode(%d)", uint8(m))
}

// BundleMember identifies one cross-node dependency carried by a bundle:
// the consumer task and the index into its Deps.
type BundleMember struct {
	Task int32
	Dep  int32
}

// Bundle is one planned coalesced message: every cross-node dependency whose
// producer lives on node Src at epoch Epoch and whose consumer lives on node
// Dst. Members are listed in deterministic graph order (task index, then dep
// index), which fixes the segment layout of the wire message.
type Bundle struct {
	Src, Dst int32
	Epoch    int32
	Members  []BundleMember
	// Bytes is the summed member payload size (excluding framing).
	Bytes int
}

// WireBytes is the on-wire size of the bundle under the runtime's
// length-prefixed segment format: a u32 member count, one u32 length per
// segment, then the concatenated payloads. The simulator charges this same
// size so virtual and real byte accounting agree.
func (b *Bundle) WireBytes() int { return 4*(1+len(b.Members)) + b.Bytes }

// bundleKey groups cross-node deps by (source node, destination node,
// producer epoch).
type bundleKey struct {
	src, dst, epoch int32
}

// BundlePlan is a graph's resolved coalescing plan: the bundles, and for
// every dependency the bundle that carries it. The zero value is the empty
// plan, in which every dependency travels point to point.
type BundlePlan struct {
	Bundles []Bundle
	// of[off[t]+d] is the bundle index of task t's dep d, -1 for none.
	off []int32
	of  []int32
}

// Of returns the index into Bundles of the bundle carrying the task's dep,
// or -1 when that dependency is not bundled.
func (p *BundlePlan) Of(task, dep int32) int32 {
	if p.of == nil {
		return -1
	}
	return p.of[p.off[task]+dep]
}

// PlanBundles resolves a coalescing mode against the graph, the one place
// both engines do so: CoalesceOff yields the empty plan, CoalesceStep the
// graph's bundle plan or its error, and CoalesceAuto the bundle plan when
// the graph admits a deadlock-free one and the empty plan otherwise.
func (g *Graph) PlanBundles(mode CoalesceMode) (BundlePlan, error) {
	if mode == CoalesceOff {
		return BundlePlan{}, nil
	}
	p, err := g.planBundles()
	if err != nil && mode == CoalesceAuto {
		return BundlePlan{}, nil
	}
	return p, err
}

// Bundles plans the halo bundles of the graph: every cross-node dependency
// is assigned to the bundle of its (producer node, consumer node, producer
// epoch) triple. The returned slice is in deterministic first-seen order.
//
// Bundling tightens the dependency structure: a bundle is sent only when
// all of its member payloads have been produced, so every member consumer
// transitively waits on every member producer. For graphs whose epochs
// advance with logical time (the stencil graphs stamp the iteration index)
// this adds no ordering that the step structure did not already imply; but
// a graph with degenerate epochs (e.g. all zero) can become cyclic — a
// chain bouncing between two nodes would wait on its own future. Bundles
// therefore validates the bundled graph with a topological sort over tasks
// plus bundle barrier nodes and returns an error when bundling would
// deadlock, leaving callers to fall back to point-to-point delivery.
func (g *Graph) Bundles() ([]Bundle, error) {
	p, err := g.planBundles()
	return p.Bundles, err
}

func (g *Graph) planBundles() (BundlePlan, error) {
	p := BundlePlan{off: make([]int32, 1, len(g.Tasks)+1)}
	byKey := map[bundleKey]int32{}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for di := range t.Deps {
			d, prod := &t.Deps[di], &g.Tasks[t.Deps[di].Producer]
			if prod.Node == t.Node {
				p.of = append(p.of, -1)
				continue
			}
			k := bundleKey{src: prod.Node, dst: t.Node, epoch: prod.Epoch}
			bi, ok := byKey[k]
			if !ok {
				bi = int32(len(p.Bundles))
				byKey[k] = bi
				p.Bundles = append(p.Bundles, Bundle{Src: k.src, Dst: k.dst, Epoch: k.epoch})
			}
			b := &p.Bundles[bi]
			b.Members = append(b.Members, BundleMember{Task: int32(i), Dep: int32(di)})
			b.Bytes += d.Bytes
			p.of = append(p.of, bi)
		}
		p.off = append(p.off, int32(len(p.of)))
	}
	if len(p.Bundles) == 0 {
		return BundlePlan{}, nil
	}

	// Kahn's algorithm over the augmented graph: producer -> bundle edges
	// (one per member) and bundle -> consumer edges (one per member), local
	// deps unchanged. The graph deadlocks under bundling iff this does not
	// visit every task.
	taskIndeg := make([]int32, len(g.Tasks))
	queue := make([]int32, 0, len(g.Tasks))
	for i := range g.Tasks {
		if taskIndeg[i] = int32(len(g.Tasks[i].Deps)); taskIndeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	bundleIndeg := make([]int32, len(p.Bundles))
	for bi, b := range p.Bundles {
		bundleIndeg[bi] = int32(len(b.Members))
	}
	visited := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, e := range g.Tasks[u].Succs {
			bi := p.Of(e.Succ, e.Dep)
			if bi < 0 {
				if taskIndeg[e.Succ]--; taskIndeg[e.Succ] == 0 {
					queue = append(queue, e.Succ)
				}
				continue
			}
			if bundleIndeg[bi]--; bundleIndeg[bi] > 0 {
				continue
			}
			for _, m := range p.Bundles[bi].Members {
				if taskIndeg[m.Task]--; taskIndeg[m.Task] == 0 {
					queue = append(queue, m.Task)
				}
			}
		}
	}
	if visited != len(g.Tasks) {
		return BundlePlan{}, fmt.Errorf("ptg: bundling by epoch deadlocks the graph (%d of %d tasks reachable); run with coalescing off",
			visited, len(g.Tasks))
	}
	return p, nil
}
