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
	var bundles []Bundle
	byKey := map[bundleKey]int32{}
	// memberOf maps a cross dep (task<<32 | dep) to its bundle index.
	memberOf := map[int64]int32{}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for di := range t.Deps {
			d := &t.Deps[di]
			p := &g.Tasks[d.Producer]
			if p.Node == t.Node {
				continue
			}
			k := bundleKey{src: p.Node, dst: t.Node, epoch: p.Epoch}
			bi, ok := byKey[k]
			if !ok {
				bi = int32(len(bundles))
				byKey[k] = bi
				bundles = append(bundles, Bundle{Src: k.src, Dst: k.dst, Epoch: k.epoch})
			}
			b := &bundles[bi]
			b.Members = append(b.Members, BundleMember{Task: int32(i), Dep: int32(di)})
			b.Bytes += d.Bytes
			memberOf[int64(i)<<32|int64(di)] = bi
		}
	}
	if len(bundles) == 0 {
		return nil, nil
	}

	// Kahn's algorithm over the augmented graph: producer -> bundle edges
	// (one per member) and bundle -> consumer edges (one per member), local
	// deps unchanged. The graph deadlocks under bundling iff this does not
	// visit every task.
	taskIndeg := make([]int32, len(g.Tasks))
	bundleIndeg := make([]int32, len(bundles))
	for i := range g.Tasks {
		taskIndeg[i] = int32(len(g.Tasks[i].Deps))
	}
	for bi := range bundles {
		bundleIndeg[bi] = int32(len(bundles[bi].Members))
	}
	queue := make([]int32, 0, len(g.Tasks))
	for i := range taskIndeg {
		if taskIndeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	visited := 0
	releaseBundle := func(bi int32) []int32 {
		var ready []int32
		for _, m := range bundles[bi].Members {
			taskIndeg[m.Task]--
			if taskIndeg[m.Task] == 0 {
				ready = append(ready, m.Task)
			}
		}
		return ready
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, e := range g.Tasks[u].Succs {
			if g.Tasks[e.Succ].Node == g.Tasks[u].Node {
				taskIndeg[e.Succ]--
				if taskIndeg[e.Succ] == 0 {
					queue = append(queue, e.Succ)
				}
				continue
			}
			bi := memberOf[int64(e.Succ)<<32|int64(e.Dep)]
			bundleIndeg[bi]--
			if bundleIndeg[bi] == 0 {
				queue = append(queue, releaseBundle(bi)...)
			}
		}
	}
	if visited != len(g.Tasks) {
		return nil, fmt.Errorf("ptg: bundling by epoch deadlocks the graph (%d of %d tasks reachable); run with coalescing off",
			visited, len(g.Tasks))
	}
	return bundles, nil
}
