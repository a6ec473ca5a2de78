package core

import (
	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// tileInfo caches per-tile geometry and classification for graph building.
type tileInfo struct {
	ti, tj     int
	rows, cols int
	r0, c0     int
	node       int32
	// boundary marks tiles with at least one remote cardinal neighbor —
	// the paper's "boundary tiles", which the CA variant equips with a
	// deep ghost region and phase-based communication.
	boundary bool
	halo     int
	// nbr[d] is the neighboring tile toward direction d, nil on the global
	// boundary.
	nbr [grid.NumDirs]*tileInfo

	// Store slots every payload moves through, reserved at build time when
	// the graph carries bodies. stateSlot holds the tile's *tileState;
	// sendSlot[d]/recvSlot[d] are the slot ranges holding packed halo
	// payloads flowing toward/arriving from direction d, indexed
	// round-robin by step or phase (see slotOf). The range depth bounds the
	// number of simultaneously live buffers of the flow, which follows from
	// how far the producer can run ahead of the consumer (see slotDepth).
	stateSlot int32
	sendSlot  [grid.NumDirs]slotRange
	recvSlot  [grid.NumDirs]slotRange
}

// slotRange is a run of depth consecutive buffer slots cycled round-robin by
// one halo flow.
type slotRange struct{ base, depth int32 }

type builder struct {
	v     Variant
	cfg   Config
	part  *grid.Partition
	tiles []tileInfo // row-major over the tile grid
	// epochs is the number of compute tasks per tile: Steps for the
	// per-step variants, ceil(Steps/w) wavefront blocks for WF.
	epochs int
	// out[k][d] is the depth of the halo flow task k (see taskIndex)
	// produces toward direction d, 0 for none: flow() evaluated once per
	// (tile, direction, iteration) and shared by the deps, hints,
	// migration hooks and bodies.
	out [][grid.NumDirs]int32
	// flows counts the graph's halo flows; it sizes the dependency and
	// migration arrays.
	flows int
}

// effWidth returns the number of time steps WF block t (1-based) advances:
// the configured width, truncated on the final block to the remaining steps.
func (b *builder) effWidth(t int) int {
	w := b.cfg.Wavefront
	if rem := b.cfg.Steps - (t-1)*w; rem < w {
		return rem
	}
	return w
}

// newBuilder lays out the tile grid and evaluates every task's outgoing
// flows.
func newBuilder(v Variant, cfg Config, part *grid.Partition) *builder {
	bd := &builder{v: v, cfg: cfg, part: part, tiles: make([]tileInfo, part.TR*part.TC)}
	bd.epochs = cfg.Steps
	if v == WF {
		bd.epochs = (cfg.Steps + cfg.Wavefront - 1) / cfg.Wavefront
	}
	for ti := 0; ti < part.TR; ti++ {
		for tj := 0; tj < part.TC; tj++ {
			rows, cols := part.TileDims(ti, tj)
			r0, c0 := part.TileOrigin(ti, tj)
			inf := bd.tile(ti, tj)
			*inf = tileInfo{
				ti: ti, tj: tj, rows: rows, cols: cols, r0: r0, c0: c0,
				node:     int32(part.Owner(ti, tj)),
				boundary: part.IsNodeBoundary(ti, tj),
			}
			inf.halo = 1
			if v == CA && inf.boundary {
				inf.halo = cfg.StepSize
			}
			if v == WF {
				// Every tile carries the deep ghost region: all flows —
				// intra-node ones included — happen once per block.
				inf.halo = cfg.Wavefront
			}
			for _, d := range grid.AllDirs {
				if ni, nj, ok := part.Neighbor(ti, tj, d); ok {
					inf.nbr[d] = bd.tile(ni, nj)
				}
			}
		}
	}
	bd.out = make([][grid.NumDirs]int32, len(bd.tiles)*(bd.epochs+1))
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		for t := 0; t <= bd.epochs; t++ {
			out := &bd.out[bd.taskIndex(inf, t)]
			for _, d := range grid.AllDirs {
				if depth, ok := bd.flow(inf, d, t); ok {
					out[d] = int32(depth)
					bd.flows++
				}
			}
		}
	}
	return bd
}

func (b *builder) tile(ti, tj int) *tileInfo { return &b.tiles[ti*b.part.TC+tj] }

// taskIndex is the index of tile inf's iteration-t task: the graph holds
// one chain of epochs+1 tasks per tile, tiles in row-major order.
func (b *builder) taskIndex(inf *tileInfo, t int) int32 {
	return int32((inf.ti*b.part.TC+inf.tj)*(b.epochs+1) + t)
}

// outDepth is the depth of the halo tile inf produces toward d after
// iteration t, 0 when there is no such flow.
func (b *builder) outDepth(inf *tileInfo, d grid.Dir, t int) int {
	return int(b.out[b.taskIndex(inf, t)][d])
}

// inDepth is the depth of the halo arriving at tile inf from direction d
// that feeds its iteration t (>= 1), 0 when there is no such flow.
func (b *builder) inDepth(inf *tileInfo, d grid.Dir, t int) int {
	p := inf.nbr[d]
	if p == nil {
		return 0
	}
	return b.outDepth(p, d.Opposite(), t-1)
}

// BuildGraph constructs the task graph of a stencil variant. With
// cfg.WithBodies the graph is executable by internal/runtime; without, it is
// a cost-only graph for internal/desim.
//
// The task and dependency counts are known before the first task is added,
// so the graph's arrays, the migration hooks and their flow lists are each
// allocated once; only task bodies and cross-node Pack/Unpack closures cost
// a per-task allocation.
func BuildGraph(v Variant, cfg Config) (*ptg.Graph, error) {
	cfg = cfg.withDefaults()
	part, err := cfg.validate(v)
	if err != nil {
		return nil, err
	}
	bd := newBuilder(v, cfg, part)
	gb := ptg.NewBuilder(part.Nodes())
	gb.Reserve(len(bd.out), len(bd.tiles)*bd.epochs+bd.flows)
	if cfg.WithBodies {
		bd.allocSlots(gb)
	}
	// Migration hooks of every compute task, with their flow lists: every
	// flow is an input of its consumer and at most an output of its
	// producer.
	migs := make([]tileMig, len(bd.tiles)*bd.epochs)
	migFlows := make([]migFlow, 0, 2*bd.flows)
	// Tasks: one chain per tile, epochs 0 (init) .. epochs — one task per
	// step for Base/CA, one per wavefront block for WF.
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		for t := 0; t <= bd.epochs; t++ {
			task := ptg.Task{
				ID:       taskID(inf.ti, inf.tj, t),
				Node:     inf.node,
				Kind:     bd.kind(inf, t),
				Priority: bd.priority(inf, t),
				// The iteration index is the exchange epoch: all halo
				// payloads a node produces at one iteration toward one
				// neighbor may ride a single coalesced bundle.
				Epoch: int32(t),
				Hint:  bd.hint(inf, t),
			}
			if cfg.WithBodies {
				task.Run = bd.body(inf, t)
			}
			if t > 0 {
				// Init allocates the tile state; it never migrates.
				m := &migs[i*bd.epochs+t-1]
				migFlows = bd.migration(m, migFlows, inf, t)
				task.Mig = &m.Migration
			}
			if _, err := gb.AddTask(task); err != nil {
				return nil, err
			}
		}
	}
	// Dependencies, consumer by consumer in task order.
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		for t := 1; t <= bd.epochs; t++ {
			k := bd.taskIndex(inf, t)
			// Serial self-dependency: the tile's double buffer.
			if err := gb.AddDepIdx(k, k-1, ptg.Dep{}); err != nil {
				return nil, err
			}
			for _, d := range grid.AllDirs {
				depth := bd.inDepth(inf, d, t)
				if depth == 0 {
					continue
				}
				p := inf.nbr[d]
				dep := ptg.Dep{}
				if p.node != inf.node {
					dep.Bytes = bd.sendRect(p, d.Opposite(), depth).Bytes()
					if cfg.WithBodies {
						ss := bd.slotOf(p.sendSlot[d.Opposite()], inf, t-1)
						rs := bd.slotOf(inf.recvSlot[d], inf, t-1)
						dep.Pack = func(e ptg.Env) []byte { return e.TakeBufSlot(ss) }
						// Zero-copy: the in-flight payload itself becomes
						// the consumer-side buffer.
						dep.Unpack = func(e ptg.Env, data []byte) { e.PutBufSlot(rs, data) }
					}
				}
				if err := gb.AddDepIdx(k, bd.taskIndex(p, t-1), dep); err != nil {
					return nil, err
				}
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Transform == TransformSplit {
		return ptg.ApplyTransforms(g, &splitPass{b: bd})
	}
	return g, nil
}

func taskID(ti, tj, t int) ptg.TaskID {
	return ptg.TaskID{Class: "st", I: ti, J: tj, K: t}
}

// allocSlots reserves the store slots every payload moves through: one
// general slot per tile for its state, and one buffer-slot range per halo
// flow. Same-node flows share a single range (producer deposits, consumer
// takes); cross-node flows get a range on each side (Pack drains the
// producer's, Unpack fills the consumer's).
func (b *builder) allocSlots(gb *ptg.Builder) {
	for i := range b.tiles {
		b.tiles[i].stateSlot = gb.AllocSlot(b.tiles[i].node)
	}
	alloc := func(node int32, depth int) slotRange {
		r := slotRange{depth: int32(depth)}
		for i := 0; i < depth; i++ {
			if s := gb.AllocBufSlot(node); i == 0 {
				r.base = s
			}
		}
		return r
	}
	for i := range b.tiles {
		cons := &b.tiles[i]
		for _, d := range grid.AllDirs {
			// Every flow kind fires after iteration 0, so existence at
			// t == 0 means the flow exists at all.
			if b.inDepth(cons, d, 1) == 0 {
				continue
			}
			p := cons.nbr[d]
			depth := b.slotDepth(p, cons, d)
			p.sendSlot[d.Opposite()] = alloc(p.node, depth)
			if cons.node == p.node {
				cons.recvSlot[d] = p.sendSlot[d.Opposite()]
			} else {
				cons.recvSlot[d] = alloc(cons.node, depth)
			}
		}
	}
}

// slotDepth bounds the number of simultaneously live buffers of the flow
// prod -> cons, i.e. how far the producer can run ahead of the take that
// frees a slot for reuse:
//
//   - Phase flows (CA, cons boundary): the producer cannot enter phase
//     p+2 before the consumer has finished the first step of phase p+1,
//     which consumed the phase-p payload. Two slots.
//   - Every-step flows from an interior (or Base) producer: the reverse
//     flow from the consumer reaches the producer the next step, so the
//     producer runs at most two steps ahead. Two slots.
//   - Every-step flows from a CA boundary producer: flows into a boundary
//     tile are phase-based, so nothing throttles the producer within a
//     phase — it can run a full phase (s productions) past a stalled
//     consumer, on top of the one unconsumed payload from the previous
//     phase boundary. s+1 slots.
//   - The CA StepSize-1 corner flow d from an interior producer into a
//     boundary tile: diagonal flows into interior tiles do not exist, so
//     the consumer holds the producer back only through two cardinal hops
//     and the producer runs at most three steps ahead. Three slots.
func (b *builder) slotDepth(prod, cons *tileInfo, d grid.Dir) int {
	switch {
	case b.v == CA && prod.boundary && !cons.boundary:
		return b.cfg.StepSize + 1
	case b.v == CA && !prod.boundary && cons.boundary && !d.Cardinal() && b.cfg.StepSize == 1:
		return 3
	default:
		return 2
	}
}

// slotOf indexes a flow's slot range for the payload produced at iteration
// t: phase flows (into CA boundary tiles) cycle per phase, every-step flows
// per step.
func (b *builder) slotOf(r slotRange, cons *tileInfo, t int) int32 {
	k := t
	if b.v == CA && cons.boundary {
		k = t / b.cfg.StepSize
	}
	return r.base + int32(k)%r.depth
}

// flow is the single source of truth for the dataflow: does tile prod
// produce a halo buffer toward direction d after iteration t (0 <= t <=
// epochs), and how deep? newBuilder evaluates it once per task; everything
// else reads the result through outDepth and inDepth.
//
//   - Base: one-layer edges toward every cardinal neighbor, every step.
//   - CA, consumer is a boundary tile: s-deep edges (and s x s corners from
//     diagonals) only at phase starts (t divisible by the step size); the
//     final phase is truncated to the remaining steps.
//   - CA, consumer is interior: one-layer cardinal edges every step, as in
//     the base version.
//   - WF: every tile flows after every block; the depth is the effective
//     width of the consuming block t+1 (truncated on the final block), with
//     depth x depth corners from diagonals whenever the block is deeper
//     than one step (the shrinking per-level regions read corner data,
//     exactly as in CA).
func (b *builder) flow(prod *tileInfo, d grid.Dir, t int) (depth int, ok bool) {
	if b.v == WF {
		if t >= b.epochs {
			return 0, false
		}
		if prod.nbr[d] == nil {
			return 0, false
		}
		depth = b.effWidth(t + 1)
		if depth == 1 && !d.Cardinal() && !b.cfg.NinePoint {
			return 0, false
		}
		return depth, true
	}
	if t >= b.cfg.Steps {
		return 0, false
	}
	cons := prod.nbr[d]
	if cons == nil {
		return 0, false
	}
	if b.v == CA && cons.boundary {
		s := b.cfg.StepSize
		if t%s != 0 {
			return 0, false
		}
		depth = s
		if rem := b.cfg.Steps - t; rem < depth {
			depth = rem
		}
		return depth, true
	}
	// The nine-point stencil reads diagonal neighbors, so the per-step
	// exchange includes 1x1 corner flows.
	if !d.Cardinal() && !b.cfg.NinePoint {
		return 0, false
	}
	return 1, true
}

// sendRect returns the rectangle prod packs when flowing depth layers
// toward d.
func (b *builder) sendRect(prod *tileInfo, d grid.Dir, depth int) grid.Rect {
	// Geometry only depends on interior dims, so a throwaway zero-halo
	// tile view suffices for rect computation; use a cheap struct instead.
	t := grid.Tile{Rows: prod.rows, Cols: prod.cols}
	return t.SendRect(d, depth)
}

func (b *builder) kind(inf *tileInfo, t int) ptg.Kind {
	switch {
	case t == 0:
		return ptg.KindInit
	case inf.boundary:
		return ptg.KindBoundary
	default:
		return ptg.KindInterior
	}
}

// priority favors earlier iterations, and boundary tiles within an
// iteration so their halos enter the network as soon as possible — the
// standard PaRSEC priority hint for stencils.
func (b *builder) priority(inf *tileInfo, t int) int32 {
	p := int32(b.epochs-t) * 2
	if inf.boundary {
		p++
	}
	return p
}

// phaseGeom returns, for a CA boundary tile at iteration t (>= 1), the
// effective phase length sp and the in-phase step index k (1-based).
func (b *builder) phaseGeom(t int) (sp, k int) {
	s := b.cfg.StepSize
	t0 := (t - 1) / s * s
	sp = s
	if rem := b.cfg.Steps - t0; rem < sp {
		sp = rem
	}
	return sp, t - t0
}

// region returns the rectangle a CA boundary tile updates at iteration t:
// the interior extended by the shrinking trapezoid margin on every side
// that has a neighbor (sides on the global boundary never extend).
func (b *builder) region(inf *tileInfo, t int) grid.Rect {
	sp, k := b.phaseGeom(t)
	ext := sp - k
	extOf := func(d grid.Dir) int {
		if ext <= 0 || inf.nbr[d] == nil {
			return 0
		}
		return ext
	}
	n, s, w, e := extOf(grid.North), extOf(grid.South), extOf(grid.West), extOf(grid.East)
	return grid.Rect{
		R0: -n, C0: -w,
		H: inf.rows + n + s,
		W: inf.cols + w + e,
	}
}

// hint computes the DES cost quantities of a task.
func (b *builder) hint(inf *tileInfo, t int) ptg.CostHint {
	h := ptg.CostHint{Rows: inf.rows, Cols: inf.cols}
	// Points packed for outgoing flows.
	for _, d := range grid.AllDirs {
		if depth := b.outDepth(inf, d, t); depth > 0 {
			h.CopyPoints += b.sendRect(inf, d, depth).Size()
		}
	}
	if t == 0 {
		// Init writes the tile once.
		h.CopyPoints += inf.rows * inf.cols
		return h
	}
	// Points unpacked from incoming flows.
	for _, d := range grid.AllDirs {
		if depth := b.inDepth(inf, d, t); depth > 0 {
			h.CopyPoints += b.sendRect(inf.nbr[d], d.Opposite(), depth).Size()
		}
	}
	h.Updates = inf.rows * inf.cols
	if b.v == CA && inf.boundary {
		h.RedundantUpdates = b.region(inf, t).Size() - h.Updates
	}
	if b.v == WF {
		// One task covers a whole block: wb interior sweeps, plus the
		// shrinking ghost-region margins of every level above it.
		wb := b.effWidth(t)
		total := 0
		for _, rc := range b.wfRegions(inf, wb) {
			total += rc.Size()
		}
		h.Updates = wb * inf.rows * inf.cols
		h.RedundantUpdates = total - h.Updates
	}
	return h
}

// wfRegions returns the per-level update rects of tile inf's width-wb
// wavefront block (level k extends the interior by wb-k layers on sides
// with neighbors).
func (b *builder) wfRegions(inf *tileInfo, wb int) []grid.Rect {
	return stencil.WavefrontRegions(inf.rows, inf.cols, wb, func(d grid.Dir) bool {
		return inf.nbr[d] != nil
	})
}

// body builds the executable closure of a task.
func (b *builder) body(inf *tileInfo, t int) func(ptg.Env) {
	if t == 0 {
		return b.initBody(inf)
	}
	if b.v == WF {
		return b.wavefrontBody(inf, t)
	}
	return b.computeBody(inf, t)
}

func (b *builder) initBody(inf *tileInfo) func(ptg.Env) {
	cfg := b.cfg
	return func(e ptg.Env) {
		cur := grid.NewTile(inf.rows, inf.cols, inf.halo)
		next := grid.NewTile(inf.rows, inf.cols, inf.halo)
		for r := 0; r < inf.rows; r++ {
			row := cur.Row(r, 0, inf.cols)
			for c := range row {
				row[c] = cfg.Init(inf.r0+r, inf.c0+c)
			}
		}
		// Ghost cells outside the global domain hold the fixed boundary in
		// both buffers; they are never written afterwards.
		stencil.FillBoundary(cur, inf.r0, inf.c0, cfg.N, cfg.Boundary)
		stencil.FillBoundary(next, inf.r0, inf.c0, cfg.N, cfg.Boundary)
		b.produce(e, publishState(e, inf, cur, next), inf, 0)
	}
}

func (b *builder) computeBody(inf *tileInfo, t int) func(ptg.Env) {
	rect := grid.Rect{R0: 0, C0: 0, H: inf.rows, W: inf.cols}
	if b.v == CA && inf.boundary {
		rect = b.region(inf, t)
	}
	return func(e ptg.Env) {
		st := b.state(e, inf)
		b.consume(e, st, inf, t)
		b.apply(st, rect)
		st.cur, st.next = st.next, st.cur
		b.produce(e, st, inf, t)
	}
}

// apply runs one stencil sweep of rect from cur into next.
func (b *builder) apply(st *tileState, rect grid.Rect) {
	if b.cfg.NinePoint {
		stencil.Apply9(b.cfg.Weights9, st.next, st.cur, rect)
	} else {
		stencil.Apply(b.cfg.Weights, st.next, st.cur, rect)
	}
}

// wavefrontBody builds the fused WF task for block t (1-based): it consumes
// the fresh w-deep halos of the block, advances the tile effWidth(t) steps
// with one diagonal in-tile sweep, and publishes the next block's halos. The
// kernel leaves the final level in whichever buffer the depth's parity picks,
// so the double-buffer swap is conditional.
func (b *builder) wavefrontBody(inf *tileInfo, t int) func(ptg.Env) {
	regions := b.wfRegions(inf, b.effWidth(t))
	return func(e ptg.Env) {
		st := b.state(e, inf)
		b.consume(e, st, inf, t)
		var res *grid.Tile
		if b.cfg.NinePoint {
			res = stencil.Wavefront9(b.cfg.Weights9, st.cur, st.next, regions)
		} else {
			res = stencil.Wavefront(b.cfg.Weights, st.cur, st.next, regions)
		}
		if res != st.cur {
			st.cur, st.next = st.next, st.cur
		}
		b.produce(e, st, inf, t)
	}
}

// produce packs and publishes every outgoing flow of iteration t: the halo
// is serialized straight into a pooled wire buffer (Tile.PackBytes) and
// deposited in the flow's round-robin slot.
func (b *builder) produce(e ptg.Env, st *tileState, inf *tileInfo, t int) {
	out := &b.out[b.taskIndex(inf, t)]
	for _, d := range grid.AllDirs {
		if out[d] == 0 {
			continue
		}
		rc := st.cur.SendRect(d, int(out[d]))
		buf := st.cur.PackBytes(rc, runtime.GetBuf(rc.Bytes()))
		e.PutBufSlot(b.slotOf(inf.sendSlot[d], inf.nbr[d], t), buf)
	}
}

// consume takes and unpacks every incoming flow feeding iteration t: the
// wire buffer is deserialized in place into the ghost region and
// immediately recycled into the runtime arena — steady state allocates
// nothing.
func (b *builder) consume(e ptg.Env, st *tileState, inf *tileInfo, t int) {
	for _, d := range grid.AllDirs {
		b.consumeDir(e, st, inf, d, t)
	}
}

// consumeDir takes and unpacks the single incoming flow arriving from
// direction d for iteration t, if it exists. Split border tasks use it to
// consume exactly the halo they are gated on; the unsplit path loops it
// over all directions.
func (b *builder) consumeDir(e ptg.Env, st *tileState, inf *tileInfo, d grid.Dir, t int) {
	depth := b.inDepth(inf, d, t)
	if depth == 0 {
		return
	}
	buf := e.TakeBufSlot(b.slotOf(inf.recvSlot[d], inf, t-1))
	st.cur.UnpackBytes(st.cur.RecvRect(d, depth), buf)
	runtime.PutBuf(buf)
}

// migFlow is one halo flow a migrating task consumes or produces, resolved
// at build time to its exact payload size and the slot it rides.
type migFlow struct {
	slot  int32
	bytes int
}

// tileMig is the migration of one compute task (see ptg.Migration): the
// full ghost-inclusive tile contents plus every consumed input halo travel
// to the thief, the post-step tile contents plus every produced output halo
// travel back. BuildGraph keeps all of a graph's tileMigs in one array and
// their flow lists in another, so the hooks cost no per-task allocation.
//
// Determinism argument: the payload ships cur's complete storage (interior
// and every ghost cell), so the thief executes the byte-identical kernel
// input a local run would have. The thief-side next buffer differs from the
// victim's only in ghost cells that are provably dead — every later read of
// a ghost is preceded by a halo consume or an in-task write — so the grid a
// committed migration leaves behind is bitwise-identical to local execution.
type tileMig struct {
	ptg.Migration
	b         *builder
	inf       *tileInfo
	ins, outs []migFlow
}

// migration fills m for tile inf's iteration-t task, appending its input
// and output flows to arena (which the caller sizes so it never regrows).
// Byte geometry comes from the same flow truth the dependency graph uses,
// so InBytes/OutBytes are exact on cost-only graphs too — the simulator
// prices migrations identically to the real engine. Slots and hooks exist
// only on graphs with bodies.
func (b *builder) migration(m *tileMig, arena []migFlow, inf *tileInfo, t int) []migFlow {
	bodies := b.cfg.WithBodies
	*m = tileMig{b: b, inf: inf}
	start := len(arena)
	for _, d := range grid.AllDirs {
		if depth := b.inDepth(inf, d, t); depth > 0 {
			f := migFlow{bytes: b.sendRect(inf.nbr[d], d.Opposite(), depth).Bytes()}
			if bodies {
				f.slot = b.slotOf(inf.recvSlot[d], inf, t-1)
			}
			arena = append(arena, f)
		}
	}
	mid := len(arena)
	for _, d := range grid.AllDirs {
		if depth := b.outDepth(inf, d, t); depth > 0 {
			f := migFlow{bytes: b.sendRect(inf, d, depth).Bytes()}
			if bodies {
				f.slot = b.slotOf(inf.sendSlot[d], inf.nbr[d], t)
			}
			arena = append(arena, f)
		}
	}
	m.ins, m.outs = arena[start:mid:mid], arena[mid:len(arena):len(arena)]
	full := m.full().Bytes()
	m.InBytes, m.OutBytes = full, full
	for _, f := range m.ins {
		m.InBytes += f.bytes
	}
	for _, f := range m.outs {
		m.OutBytes += f.bytes
	}
	if bodies {
		m.Migrator = m
	}
	return arena
}

// full is the tile's whole storage, ghost cells included.
func (m *tileMig) full() grid.Rect {
	h := m.inf.halo
	return grid.Rect{R0: -h, C0: -h, H: m.inf.rows + 2*h, W: m.inf.cols + 2*h}
}

func (m *tileMig) PackIn(e ptg.Env) []byte {
	return packMig(e, m.b.state(e, m.inf).cur, m.full(), m.ins, m.InBytes)
}

func (m *tileMig) Deposit(e ptg.Env, data []byte) {
	depositMig(e, migState(e, m.inf, m.b.cfg).cur, m.full(), m.ins, data)
}

func (m *tileMig) PackOut(e ptg.Env) []byte {
	return packMig(e, m.b.state(e, m.inf).cur, m.full(), m.outs, m.OutBytes)
}

// Commit lands the shipped result in next and swaps the double buffer, so
// cur holds exactly what a local execution's swap would have left.
func (m *tileMig) Commit(e ptg.Env, data []byte) {
	st := m.b.state(e, m.inf)
	depositMig(e, st.next, m.full(), m.outs, data)
	st.cur, st.next = st.next, st.cur
}

// packMig serializes a migration payload of n bytes: the full rect of tile
// followed by the payload of every flow, drained from its slot.
func packMig(e ptg.Env, tile *grid.Tile, full grid.Rect, flows []migFlow, n int) []byte {
	data := runtime.GetBuf(n)[:n]
	off := full.Bytes()
	tile.PackBytes(full, data[:off])
	for _, f := range flows {
		buf := e.TakeBufSlot(f.slot)
		copy(data[off:off+f.bytes], buf)
		runtime.PutBuf(buf)
		off += f.bytes
	}
	return data
}

// depositMig is packMig's inverse: it unpacks the full rect into tile and
// deposits every flow's payload in its slot.
func depositMig(e ptg.Env, tile *grid.Tile, full grid.Rect, flows []migFlow, data []byte) {
	off := full.Bytes()
	tile.UnpackBytes(full, data[:off])
	for _, f := range flows {
		buf := runtime.GetBuf(f.bytes)[:f.bytes]
		copy(buf, data[off:off+f.bytes])
		e.PutBufSlot(f.slot, buf)
		off += f.bytes
	}
}

// migState fetches — or, on a thief rank executing its first migrated task
// of this tile, creates — the tile's double-buffer state. The fresh next
// buffer gets the fixed global boundary in its out-of-domain ghosts (init
// fills them exactly once in a local run); its remaining cells are dead
// until written, per the determinism argument above.
func migState(e ptg.Env, inf *tileInfo, cfg Config) *tileState {
	if v := e.GetSlot(inf.stateSlot); v != nil {
		return v.(*tileState)
	}
	cur := grid.NewTile(inf.rows, inf.cols, inf.halo)
	next := grid.NewTile(inf.rows, inf.cols, inf.halo)
	stencil.FillBoundary(next, inf.r0, inf.c0, cfg.N, cfg.Boundary)
	return publishState(e, inf, cur, next)
}

// publishState installs a tile's double-buffer state in its node's store.
// The keyed entry stays authoritative for out-of-graph readers (Gather,
// hygiene tests); the slot gives compute tasks lock-free access on the hot
// path.
func publishState(e ptg.Env, inf *tileInfo, cur, next *grid.Tile) *tileState {
	st := &tileState{cur: cur, next: next, r0: inf.r0, c0: inf.c0}
	e.Put(TileKey{TI: inf.ti, TJ: inf.tj}, st)
	e.PutSlot(inf.stateSlot, st)
	return st
}

// state fetches the tile's double-buffer state.
func (b *builder) state(e ptg.Env, inf *tileInfo) *tileState {
	return e.GetSlot(inf.stateSlot).(*tileState)
}

// GraphStats builds the graph (cost-only) and returns its statistics;
// convenient for tests and the documentation tables.
func GraphStats(v Variant, cfg Config) (ptg.Stats, error) {
	cfg.WithBodies = false
	g, err := BuildGraph(v, cfg)
	if err != nil {
		return ptg.Stats{}, err
	}
	return g.ComputeStats(), nil
}
