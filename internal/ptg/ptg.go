// Package ptg is the parameterized-task-graph abstraction of this
// repository's PaRSEC analog. Algorithms (the base and CA stencils, see
// internal/core) are expressed as graphs of task instances with explicit
// dataflow dependencies; communication is implied by dependencies that cross
// node boundaries, exactly like PaRSEC's PTG/JDF representation where the
// runtime infers all messages from the task expressions.
//
// Two engines consume a Graph: internal/runtime executes it for real
// (concurrent workers per node, byte-serialized inter-node messages) and
// internal/desim replays it in virtual time against machine cost models.
package ptg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// TaskID names a task instance: a class (e.g. "jacobi") plus up to three
// integer parameters (tile row, tile column, step for the stencil graphs).
type TaskID struct {
	Class   string
	I, J, K int
}

func (id TaskID) String() string {
	return fmt.Sprintf("%s(%d,%d,%d)", id.Class, id.I, id.J, id.K)
}

// Kind classifies tasks for cost modeling and trace rendering. The paper's
// Figure 10 distinguishes boundary tasks (tiles that exchange data with
// remote nodes) from interior tasks.
type Kind uint8

const (
	KindInit Kind = iota
	KindInterior
	KindBoundary
	// KindComm labels communication-goroutine activity in traces (packing
	// and fan-out on the dedicated comm thread); graph tasks never carry it.
	KindComm
	// KindFault labels fault-injection and recovery activity in traces
	// (drops, duplicates, delays, retransmits, dedup, pauses); graph tasks
	// never carry it.
	KindFault
	// KindInner and KindBorder label the products of the inner/border
	// splitting transform (see Transform and core's split pass): an inner
	// task updates the part of a tile that needs no freshly arrived halo
	// data — it can run while messages are in flight — while a border task
	// is the thin strip gated on one halo arrival. They appear after
	// KindFault so trace CSVs written before the transform existed keep
	// their kind encoding.
	KindInner
	KindBorder
	NumKinds
)

var kindNames = [NumKinds]string{"init", "interior", "boundary", "comm", "fault", "inner", "border"}

func (k Kind) String() string {
	if k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Env is the node-local execution environment handed to task bodies by the
// real runtime. Get/Put/Take operate on the node's private store; tasks of
// one node never see another node's store (node isolation — the analog of
// distributed memory).
//
// Graphs whose dataflow is static at build time (the stencil graphs) also
// address the store through integer slots reserved via Builder.AllocSlot/
// AllocBufSlot: plain array indexing instead of the mutex-protected key map,
// which keeps lock and hash traffic off the hot path. Slot accesses carry no
// locking of their own: the runtime's scheduling edges (ready-queue handoff,
// send/inbox channels, pending-counter atomics) already order every producer
// before its consumer.
type Env interface {
	NodeID() int
	// Put stores a write-once value under a key. Putting an existing key
	// panics: dataflow values are produced exactly once.
	Put(key, val any)
	// Take removes and returns a value, panicking if absent: by
	// construction a task only runs when its inputs have been produced.
	Take(key any) any
	// Get returns a value without removing it (nil if absent).
	Get(key any) any
	// PutSlot stores a write-once value in a general slot (persistent
	// state such as tile buffers). Reusing an occupied slot panics.
	PutSlot(slot int32, v any)
	// GetSlot returns a general slot's value without removing it.
	GetSlot(slot int32) any
	// PutBufSlot deposits a message payload in a buffer slot. Occupied
	// slots panic (a duplicated delivery or a dataflow bug).
	PutBufSlot(slot int32, b []byte)
	// TakeBufSlot removes and returns a buffer slot's payload, panicking
	// when empty (consumption before production).
	TakeBufSlot(slot int32) []byte
}

// CostHint carries the quantities the discrete-event simulator needs to
// price a task with the machine's kernel model. All counts are in grid
// points.
type CostHint struct {
	// Rows, Cols are the tile's interior extent (for working-set / cache
	// modeling).
	Rows, Cols int
	// Updates is the nominal tile update count (mb*nb) — subject to the
	// paper's kernel-adjustment ratio.
	Updates int
	// RedundantUpdates is the extra trapezoid work a CA boundary task
	// performs on ghost regions. The paper's ratio-tuned experiments
	// exclude it ("we simulate the kernel time without the extra
	// computation"); real-kernel runs include it.
	RedundantUpdates int
	// CopyPoints counts halo points packed/unpacked by this task (the
	// "extra copies in the body" behind the CA version's larger median
	// kernel time in Fig. 10).
	CopyPoints int
}

// Dep is one input dependency of a task. If the producer lives on a
// different node the dependency carries a payload of Bytes bytes and, when
// the graph is built with bodies, Pack/Unpack closures that serialize the
// value out of the producer node's store and deposit it into the consumer
// node's store.
type Dep struct {
	Producer int32 // task index
	Bytes    int   // payload size; 0 for pure-ordering local deps
	Pack     func(env Env) []byte
	Unpack   func(env Env, data []byte)
}

// Migration makes a task stealable across ranks of a distributed run: its
// Migrator describes how to serialize the task's entire input state out of
// its home node's store (PackIn), materialize it on a remote rank (Deposit),
// ship the results back (PackOut) and install them at home exactly as a
// local execution would have (Commit). A task with a nil Mig never migrates.
//
// InBytes and OutBytes are the exact payload sizes PackIn and PackOut
// produce; they are populated even on cost-only graphs (whose Migrator is
// nil) so the virtual-time engine prices migrations identically to the real
// one.
type Migration struct {
	InBytes  int
	OutBytes int
	Migrator
}

// Migrator implements a task's migration hooks. Graph builders typically
// keep one implementation value per task in a per-graph array, so the hooks
// cost no per-task closures.
type Migrator interface {
	// PackIn serializes the task's input state (tile contents plus every
	// already-delivered input payload, which it consumes) from the home
	// store. Runs on the victim rank before the task leaves.
	PackIn(env Env) []byte
	// Deposit installs a PackIn payload into the thief rank's store for the
	// task's node, creating state as needed, so Run can execute unchanged.
	Deposit(env Env, data []byte)
	// PackOut serializes (and consumes) everything Run produced on the
	// thief: the post-step tile contents and every output payload.
	PackOut(env Env) []byte
	// Commit installs a PackOut payload into the home store — after it the
	// store is bitwise-identical to a local execution's, and the task's
	// successors may be released.
	Commit(env Env, data []byte)
}

// Edge is one outgoing dependency edge of a task: Tasks[Succ].Deps[Dep]
// names the task as its producer.
type Edge struct {
	Succ int32 // consumer task index
	Dep  int32 // index into the consumer's Deps
}

// Task is one node of the graph.
type Task struct {
	ID       TaskID
	Node     int32
	Kind     Kind
	Priority int32 // higher runs earlier when schedulers must choose
	// Epoch is the task's logical exchange epoch (the iteration index for
	// the stencil graphs). Cross-node payloads produced by tasks of one
	// node in the same epoch toward one destination may be coalesced into
	// a single halo bundle (see Graph.Bundles); graphs that leave Epoch at
	// zero everywhere simply do not admit a bundle plan.
	Epoch int32
	Hint  CostHint
	Deps  []Dep
	// Succs lists the task's outgoing edges, filled by Build: one entry per
	// dependency naming this task as producer, ordered by consumer index
	// and then by dep index. A consumer with several deps on the task (an
	// edge and a corner flow) appears once per dep, so engines release
	// successors by walking Succs alone. Every task's Deps and Succs are
	// sub-slices of one flat array each.
	Succs []Edge
	Run   func(env Env)
	// Mig, when non-nil, lets a distributed run migrate this task to
	// another rank (see Migration). Kept out of the hot path: engines only
	// consult it on the steal protocol's slow path.
	Mig *Migration
}

// Graph is an immutable task graph over a fixed set of nodes.
type Graph struct {
	NumNodes int
	Tasks    []Task
	// NodeSlots and NodeBufSlots are the per-node counts of general and
	// buffer slots reserved at build time (nil when the graph uses keyed
	// dataflow only). The real engine sizes its stores from these.
	NodeSlots    []int
	NodeBufSlots []int
	index        map[TaskID]int32
	stats        *Stats
}

// Lookup returns the index of a task by ID.
func (g *Graph) Lookup(id TaskID) (int32, bool) {
	i, ok := g.index[id]
	return i, ok
}

// Roots returns the indices of tasks with no dependencies.
func (g *Graph) Roots() []int32 {
	var out []int32
	for i := range g.Tasks {
		if len(g.Tasks[i].Deps) == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// CrossNodeDeps counts dependencies whose producer and consumer live on
// different nodes, and the total payload bytes they carry. It reads the
// stats computed at Build time (see ComputeStats).
func (g *Graph) CrossNodeDeps() (count, bytes int) {
	s := g.ComputeStats()
	return s.CrossDeps, s.CrossBytes
}

// Builder accumulates tasks and dependencies and validates the result. A
// builder produces one graph: once Build has been called, every further
// AddTask, AddDep, AddDepIdx and Build returns an error.
type Builder struct {
	numNodes int
	tasks    []Task
	index    map[TaskID]int32
	// deps holds every dependency in insertion order, cons its consumer.
	// When consumers arrived in nondecreasing order deps already is the
	// graph's flat dependency array.
	deps     []Dep
	cons     []int32
	slots    []int
	bufSlots []int
	built    bool
}

// NewBuilder creates a builder for a graph over numNodes nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes, index: make(map[TaskID]int32)}
}

// Reserve makes room for tasks more tasks and deps more dependencies, so a
// caller that knows its graph's size up front fills each of the graph's
// arrays without regrowing it.
func (b *Builder) Reserve(tasks, deps int) {
	b.tasks = slices.Grow(b.tasks, tasks)
	if len(b.index) == 0 {
		b.index = make(map[TaskID]int32, tasks)
	}
	b.deps = slices.Grow(b.deps, deps)
	b.cons = slices.Grow(b.cons, deps)
}

var errBuilt = errors.New("ptg: builder already built its graph")

// AddTask registers a task instance and returns its index. The Deps and
// Succs fields of the argument are ignored; use AddDep or AddDepIdx.
func (b *Builder) AddTask(t Task) (int32, error) {
	if b.built {
		return 0, errBuilt
	}
	if _, dup := b.index[t.ID]; dup {
		return 0, fmt.Errorf("ptg: duplicate task %v", t.ID)
	}
	if t.Node < 0 || int(t.Node) >= b.numNodes {
		return 0, fmt.Errorf("ptg: task %v on invalid node %d (have %d)", t.ID, t.Node, b.numNodes)
	}
	t.Deps = nil
	t.Succs = nil
	idx := int32(len(b.tasks))
	b.tasks = append(b.tasks, t)
	b.index[t.ID] = idx
	return idx, nil
}

// AllocSlot reserves a general store slot on a node and returns its index.
// Slots let bodies bypass the keyed store for dataflow values whose keys
// are static at build time (see Env).
func (b *Builder) AllocSlot(node int32) int32 {
	if b.slots == nil {
		b.slots = make([]int, b.numNodes)
	}
	s := int32(b.slots[node])
	b.slots[node]++
	return s
}

// AllocBufSlot reserves a message-payload buffer slot on a node and returns
// its index.
func (b *Builder) AllocBufSlot(node int32) int32 {
	if b.bufSlots == nil {
		b.bufSlots = make([]int, b.numNodes)
	}
	s := int32(b.bufSlots[node])
	b.bufSlots[node]++
	return s
}

// PresetSlots seeds the builder's per-node slot counters from an existing
// graph's NodeSlots/NodeBufSlots. Rewrite passes (see Transform) reuse the
// original graph's task bodies and Pack/Unpack closures, which address
// store slots by the indices assigned at first build; preseeding keeps
// those indices valid in the rewritten graph while still allowing a pass
// to allocate additional slots on top.
func (b *Builder) PresetSlots(slots, bufSlots []int) {
	if slots != nil {
		b.slots = append([]int(nil), slots...)
	}
	if bufSlots != nil {
		b.bufSlots = append([]int(nil), bufSlots...)
	}
}

// AddDep records that consumer depends on producer, naming both by ID.
// Cross-node dependencies must carry a positive payload size; Pack/Unpack
// may be nil when the graph is cost-only (no bodies).
func (b *Builder) AddDep(consumer, producer TaskID, d Dep) error {
	ci, ok := b.index[consumer]
	if !ok {
		return fmt.Errorf("ptg: unknown consumer %v", consumer)
	}
	pi, ok := b.index[producer]
	if !ok {
		return fmt.Errorf("ptg: unknown producer %v", producer)
	}
	return b.AddDepIdx(ci, pi, d)
}

// AddDepIdx is AddDep with both tasks named by the index AddTask returned.
// A graph builder that knows its task layout adds dependencies this way,
// without an ID lookup; adding them in nondecreasing consumer order lets
// Build use them as the graph's dependency array without a copy.
func (b *Builder) AddDepIdx(consumer, producer int32, d Dep) error {
	if b.built {
		return errBuilt
	}
	n := int32(len(b.tasks))
	if consumer < 0 || consumer >= n {
		return fmt.Errorf("ptg: unknown consumer index %d (have %d tasks)", consumer, n)
	}
	if producer < 0 || producer >= n {
		return fmt.Errorf("ptg: unknown producer index %d (have %d tasks)", producer, n)
	}
	if b.tasks[consumer].Node != b.tasks[producer].Node && d.Bytes <= 0 {
		return fmt.Errorf("ptg: cross-node dep %v -> %v needs payload bytes",
			b.tasks[producer].ID, b.tasks[consumer].ID)
	}
	d.Producer = producer
	b.deps = append(b.deps, d)
	b.cons = append(b.cons, consumer)
	return nil
}

// Build lays the graph out flat, validates it and freezes it. Every task's
// Deps becomes a sub-slice of one dependency array (in insertion order per
// consumer) and its Succs a sub-slice of one edge array; a single Kahn pass
// then both proves the graph acyclic and computes its statistics.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, errBuilt
	}
	b.built = true
	tasks, deps := b.tasks, b.deps
	n := len(tasks)
	// off[i+1] counts, then prefixes, the deps of consumer i (and later
	// the edges of producer i).
	off := make([]int32, n+1)
	for _, c := range b.cons {
		off[c+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if !slices.IsSorted(b.cons) {
		// A stable counting sort by consumer keeps each task's deps in
		// insertion order.
		deps = make([]Dep, len(b.deps))
		next := append([]int32(nil), off[:n]...)
		for k, c := range b.cons {
			deps[next[c]] = b.deps[k]
			next[c]++
		}
	}
	for i := range tasks {
		tasks[i].Deps = deps[off[i]:off[i+1]:off[i+1]]
	}
	// Successor edges: count per producer, prefix, then fill in consumer
	// order so each producer's edges come out sorted by (consumer, dep).
	clear(off)
	for _, d := range deps {
		off[d.Producer+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	edges := make([]Edge, len(deps))
	for i := range tasks {
		for di, d := range tasks[i].Deps {
			edges[off[d.Producer]] = Edge{Succ: int32(i), Dep: int32(di)}
			off[d.Producer]++
		}
	}
	// off[p] now ends producer p's edges, which start where p-1's end.
	start := int32(0)
	for i := range tasks {
		tasks[i].Succs = edges[start:off[i]:off[i]]
		start = off[i]
	}
	g := &Graph{
		NumNodes: b.numNodes, Tasks: tasks, index: b.index,
		NodeSlots: b.slots, NodeBufSlots: b.bufSlots,
	}
	// Stats are computed eagerly so transforms cannot leave stale summaries
	// behind: every (re)build refreshes them, and readers share the memo.
	stats, visited := g.summarize()
	if visited != n {
		return nil, fmt.Errorf("ptg: graph has a dependency cycle (%d of %d tasks reachable)", visited, n)
	}
	g.stats = stats
	// The graph owns the arrays now; the index stays readable (AddDep's
	// lookups reach AddDepIdx, which refuses) but is never written again.
	b.tasks, b.deps, b.cons, b.slots, b.bufSlots = nil, nil, nil, nil, nil
	return g, nil
}

// Stats summarizes a graph for logging and tests.
type Stats struct {
	Tasks, Deps       int
	CrossDeps         int
	CrossBytes        int
	TasksPerNodeMin   int
	TasksPerNodeMax   int
	KindCounts        map[string]int
	CriticalPathTasks int
}

// ComputeStats returns the graph's summary statistics, including the length
// (in tasks) of the longest dependency chain. Stats are computed eagerly at
// Build() and memoized; a rewrite pass that mutates a graph in place must
// call InvalidateStats (ApplyTransforms handles this). The returned value
// owns its KindCounts map, so callers may mutate it freely.
func (g *Graph) ComputeStats() Stats {
	if g.stats == nil {
		g.stats = g.computeStats()
	}
	s := *g.stats
	kc := make(map[string]int, len(s.KindCounts))
	for k, v := range s.KindCounts {
		kc[k] = v
	}
	s.KindCounts = kc
	return s
}

// InvalidateStats drops the memoized stats so the next ComputeStats (or the
// next Build of a derived graph) recomputes them from the task list.
func (g *Graph) InvalidateStats() {
	g.stats = nil
}

func (g *Graph) computeStats() *Stats {
	s, _ := g.summarize()
	return s
}

// summarize computes the graph's statistics in one Kahn pass over the
// successor edges and returns them with the number of tasks the pass
// reached; fewer than len(Tasks) means the graph has a cycle. Tasks are not
// stored topologically, so the critical path is the deepest level the pass
// assigns.
func (g *Graph) summarize() (*Stats, int) {
	n := len(g.Tasks)
	s := Stats{Tasks: n, KindCounts: make(map[string]int)}
	perNode := make([]int, g.NumNodes)
	indeg, depth, queue := make([]int32, n), make([]int32, n), make([]int32, 0, n)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s.Deps += len(t.Deps)
		perNode[t.Node]++
		s.KindCounts[t.Kind.String()]++
		indeg[i] = int32(len(t.Deps))
		for _, d := range t.Deps {
			if g.Tasks[d.Producer].Node != t.Node {
				s.CrossDeps++
				s.CrossBytes += d.Bytes
			}
		}
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
			depth[i] = 1
		}
	}
	visited := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		s.CriticalPathTasks = max(s.CriticalPathTasks, int(depth[u]))
		for _, e := range g.Tasks[u].Succs {
			depth[e.Succ] = max(depth[e.Succ], depth[u]+1)
			if indeg[e.Succ]--; indeg[e.Succ] == 0 {
				queue = append(queue, e.Succ)
			}
		}
	}
	if g.NumNodes > 0 {
		sort.Ints(perNode)
		s.TasksPerNodeMin = perNode[0]
		s.TasksPerNodeMax = perNode[len(perNode)-1]
	}
	return &s, visited
}
