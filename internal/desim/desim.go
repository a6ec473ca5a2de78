// Package desim replays a ptg.Graph in virtual time: tasks occupy compute
// cores for a model-derived duration and cross-node dependencies occupy NICs
// and the wire through a netsim.Fabric. The result is a deterministic
// makespan for a given machine model — the engine behind every performance
// figure regenerated from the paper (the real cluster is simulated per the
// substitution rules in DESIGN.md).
//
// The simulation is an exact resource-constrained list scheduling: a task
// starts the moment all its inputs are present on its node AND a core is
// idle; cores are released at task end; messages leave on the producer
// node's NIC in completion order (the dedicated communication thread of the
// paper's PaRSEC configuration).
package desim

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"castencil/internal/fault"
	"castencil/internal/netsim"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// CostFn prices one task in compute time.
type CostFn func(t *ptg.Task) time.Duration

// Options configures a simulation.
type Options struct {
	// Cores is the number of compute cores per node (the machine's
	// CoresPerNode minus the communication thread).
	Cores int
	// Cost prices each task.
	Cost CostFn
	// Fabric models the interconnect. Required when the graph has
	// cross-node dependencies.
	Fabric *netsim.Fabric
	// Policy orders the per-node wait queue when cores are oversubscribed.
	Policy Policy
	// Trace, when non-nil, receives an event per task with virtual times.
	// TraceNode limits collection to one node (<0 = all nodes); traces of
	// large runs are expensive.
	Trace     *trace.Trace
	TraceNode int32
	// Coalesce selects halo-bundle aggregation, resolved exactly as in the
	// real runtime (see ptg.Graph.PlanBundles): a bundle costs one NIC
	// occupancy per side and one wire latency instead of one per member.
	Coalesce ptg.CoalesceMode
	// Fault, when non-nil, injects the plan's deterministic fault schedule
	// into the virtual wire. Decisions are keyed by graph identity exactly
	// as in the real runtime, so both engines inject byte-identical
	// schedules for the same plan. Plans that drop, duplicate or pause
	// auto-enable Recovery with the default policy when it is nil.
	Fault *fault.Plan
	// Recovery configures the modeled reliable transport: each injected
	// drop costs one backed-off ack timeout before its retransmission, and
	// a transfer unacknowledged past Deadline fails the simulation with a
	// structured *fault.Report (graceful degradation, mirroring the real
	// engine). Acks are modeled free, as the real engine accounts them.
	Recovery *fault.Recovery
	// Ctx, when non-nil, bounds the simulation in wall-clock time: the
	// event loop polls it every few hundred events and returns a
	// *ptg.CancelError (wrapping the context error) when it is cancelled
	// or past its deadline — mirroring the real engine's contract.
	Ctx context.Context
	// OnProgress, when non-nil, is called with (completed, total) task
	// counts as the replay advances — at least once at completion and
	// roughly every 1/128th of the graph in between. Called from the
	// single simulation goroutine.
	OnProgress func(done, total int64)
	// Steal, when non-nil, mirrors the real runtime's inter-node work
	// stealing for a scripted (forced) migration schedule: each listed task
	// executes on its thief rank's steal agent instead of a victim core,
	// paying the migration transfers on the fabric. Forced schedules are the
	// deterministic arm the sim==real parity tests exercise; the real
	// engine's demand-driven (starvation-triggered) stealing is wall-clock
	// dependent and has no virtual-time analogue.
	Steal *StealOpts
}

// StealOpts configures the forced-migration mirror.
type StealOpts struct {
	// Ranks is the process count of the mirrored distributed run; RankOf
	// maps a virtual node to its owning rank (runtime.RankOfNode in the
	// mirrored run).
	Ranks  int
	RankOf func(node int) int
	// Force lists the scripted migrations: task (by graph index) and the
	// thief rank that executes it.
	Force []ForcedSteal
}

// ForcedSteal scripts one migration. It intentionally duplicates the
// runtime's type rather than importing it: desim depends only on the graph.
type ForcedSteal struct {
	Task  int32
	Thief int
}

// Policy mirrors the real runtime's scheduling disciplines.
type Policy int

const (
	FIFO Policy = iota
	Priority
)

// Result is the outcome of a simulation. Its embedded Counters mirror the
// real runtime.Result's exactly: Messages/BytesSent/Bundles/Segments from
// the fabric, Fault from the injected schedule and modeled recovery, the
// split counters from simulated inner/border tasks, and one steal per
// forced migration with MigratedBytes the sum of each migrated task's
// Mig.InBytes+OutBytes.
type Result struct {
	ptg.Counters
	Makespan time.Duration
	// BusyTime is the total core-seconds spent computing, per node.
	BusyTime []time.Duration
	Tasks    int
	// OverlapRatio mirrors the real engine's: the fraction of wire
	// in-flight time during which at least one interior (KindInner) task
	// was executing (zero when the graph has no inner tasks).
	OverlapRatio float64
}

// Occupancy returns the average compute-core utilization of a node.
func (r *Result) Occupancy(node, cores int) float64 {
	if r.Makespan <= 0 || cores <= 0 {
		return 0
	}
	return float64(r.BusyTime[node]) / (float64(r.Makespan) * float64(cores))
}

type evKind uint8

const (
	evTaskDone evKind = iota
	evMsgArrive
	// evBundleArrive delivers a coalesced halo bundle: one event satisfies
	// every member dependency at the same arrival time (task holds the
	// bundle index instead of a task index).
	evBundleArrive
	// evSendMsg / evSendBundle perform a send deferred past the source
	// node's fault-injected pause window (task holds the consumer index
	// with core the dependency index, or the bundle index). Deferring —
	// instead of pricing the send immediately with a far-future departure
	// — keeps fabric pricing in virtual-time order, so a paused sender
	// never inflates the NIC horizons seen by earlier traffic.
	evSendMsg
	evSendBundle
	// evStealReturn completes a forced migration: the thief's results frame
	// arrived back at the victim and the task commits there (no core was
	// occupied on either side — the thief executes on its steal agent).
	evStealReturn
)

type event struct {
	at   time.Duration
	seq  int64
	kind evKind
	task int32 // finished task, message's consumer task, or bundle index
	node int32 // node concerned
	core int32
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type waitItem struct {
	task int32
	prio int32
	seq  int64
}

type waitHeap struct {
	items  []waitItem
	byPrio bool
}

func (h waitHeap) Len() int { return len(h.items) }
func (h waitHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.byPrio && a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}
func (h waitHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *waitHeap) Push(x any)   { h.items = append(h.items, x.(waitItem)) }
func (h *waitHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

type simNode struct {
	idleCores []int32 // stack of idle core ids
	waiting   waitHeap
	busy      time.Duration
}

type sim struct {
	g      *ptg.Graph
	opts   Options
	events eventHeap
	seq    int64
	nodes  []*simNode
	// pending deps per task; ready time accumulates the max input arrival.
	pending []int32
	ready   []time.Duration
	done    int
	// Bundle plan (empty when coalescing is off or the graph has no cross
	// deps) and the per-bundle countdown of members not yet produced.
	plan      ptg.BundlePlan
	bundleRem []int32
	// cnt accumulates the run's counters but for the fabric's traffic,
	// which Run copies in at the end.
	cnt ptg.Counters
	// Fault mirror state (see fault.go): the armed plan and recovery
	// policy, per-(node,core) executed-task counters for slow cores,
	// per-node outgoing-message counters for comm stalls, per-node
	// completed-task counters and pause horizons, and the structured report
	// of a deadline degradation.
	fplan      *fault.Plan
	rec        fault.Recovery
	reliable   bool
	coreSeq    [][]int
	outSeq     []int
	nodeDone   []int
	pauseUntil []time.Duration
	ferr       error
	// Overlap instrumentation, active only when the graph carries KindInner
	// tasks (trace.OverlapRatio defines the semantics): commIv collects
	// [departure, arrival) of every cross-node transfer, innerIv the
	// execution window of every inner task.
	overlapOn bool
	commIv    []trace.Span
	innerIv   []trace.Span
	// Forced-migration mirror state (nil/empty without Options.Steal):
	// forced maps a task index to its thief rank, rankNode each rank to its
	// first owned node (the endpoint its steal frames travel through), and
	// agentFree each rank's single steal agent to its next idle time.
	forced    map[int32]int
	rankNode  []int32
	agentFree []time.Duration
}

// stealInit validates and arms the forced-migration mirror.
func (s *sim) stealInit() error {
	so := s.opts.Steal
	if so == nil || len(so.Force) == 0 {
		return nil
	}
	if so.Ranks < 2 || so.RankOf == nil {
		return fmt.Errorf("desim: Steal needs Ranks >= 2 and a RankOf placement")
	}
	if s.opts.Fabric == nil {
		return fmt.Errorf("desim: Steal requires a Fabric")
	}
	s.rankNode = make([]int32, so.Ranks)
	for r := range s.rankNode {
		s.rankNode[r] = -1
	}
	for n := 0; n < s.g.NumNodes; n++ {
		r := so.RankOf(n)
		if r < 0 || r >= so.Ranks {
			return fmt.Errorf("desim: RankOf(%d) = %d out of range [0,%d)", n, r, so.Ranks)
		}
		if s.rankNode[r] < 0 {
			s.rankNode[r] = int32(n)
		}
	}
	s.forced = make(map[int32]int, len(so.Force))
	s.agentFree = make([]time.Duration, so.Ranks)
	for _, f := range so.Force {
		if f.Task < 0 || int(f.Task) >= len(s.g.Tasks) {
			return fmt.Errorf("desim: forced steal task %d out of range", f.Task)
		}
		t := &s.g.Tasks[f.Task]
		if t.Mig == nil {
			return fmt.Errorf("desim: forced steal task %d is not migratable", f.Task)
		}
		if f.Thief < 0 || f.Thief >= so.Ranks {
			return fmt.Errorf("desim: forced steal thief rank %d out of range [0,%d)", f.Thief, so.Ranks)
		}
		if f.Thief == so.RankOf(int(t.Node)) {
			return fmt.Errorf("desim: forced steal task %d already lives on rank %d", f.Task, f.Thief)
		}
		if s.rankNode[f.Thief] < 0 {
			return fmt.Errorf("desim: thief rank %d owns no nodes", f.Thief)
		}
		if _, dup := s.forced[f.Task]; dup {
			return fmt.Errorf("desim: task %d forced twice", f.Task)
		}
		s.forced[f.Task] = f.Thief
	}
	return nil
}

// migrate mirrors one forced migration in virtual time: the victim's steal
// agent ships the task's inputs to the thief rank's agent, which executes it
// off-core (one agent per rank, so back-to-back migrations to one thief
// serialize) and ships the results back; the task commits at the victim when
// the return frame lands. Ack frames are modeled free, like data acks.
func (s *sim) migrate(idx int32, thief int, at time.Duration) {
	t := &s.g.Tasks[idx]
	victimNode := int(t.Node)
	thiefNode := int(s.rankNode[thief])
	arrive := s.opts.Fabric.SendSteal(victimNode, thiefNode, t.Mig.InBytes, at)
	start := arrive
	if s.agentFree[thief] > start {
		start = s.agentFree[thief]
	}
	d := s.opts.Cost(t)
	if d < 0 {
		d = 0
	}
	end := start + d
	s.agentFree[thief] = end
	back := s.opts.Fabric.SendSteal(thiefNode, victimNode, t.Mig.OutBytes, end)
	if s.opts.Trace != nil && (s.opts.TraceNode < 0 || s.opts.TraceNode == t.Node) {
		s.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: t.Node, Core: int32(s.opts.Cores), Start: start, End: end, Stolen: true,
		})
	}
	s.seq++
	heap.Push(&s.events, event{at: back, seq: s.seq, kind: evStealReturn, task: idx, node: t.Node})
}

// Run simulates the graph and returns the makespan and statistics.
func Run(g *ptg.Graph, opts Options) (*Result, error) {
	if opts.Cores <= 0 {
		return nil, fmt.Errorf("desim: Cores must be positive")
	}
	if opts.Cost == nil {
		return nil, fmt.Errorf("desim: Cost function required")
	}
	if cross, _ := g.CrossNodeDeps(); cross > 0 && opts.Fabric == nil {
		return nil, fmt.Errorf("desim: graph has %d cross-node deps but no Fabric", cross)
	}
	if opts.Fabric != nil && opts.Fabric.Nodes() < g.NumNodes {
		return nil, fmt.Errorf("desim: fabric has %d endpoints, graph needs %d", opts.Fabric.Nodes(), g.NumNodes)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, &ptg.CancelError{Engine: "desim", Total: len(g.Tasks), Err: err}
		}
	}
	s := &sim{
		g:       g,
		opts:    opts,
		nodes:   make([]*simNode, g.NumNodes),
		pending: make([]int32, len(g.Tasks)),
		ready:   make([]time.Duration, len(g.Tasks)),
	}
	for n := range s.nodes {
		nd := &simNode{idleCores: make([]int32, 0, opts.Cores)}
		for c := opts.Cores - 1; c >= 0; c-- {
			nd.idleCores = append(nd.idleCores, int32(c))
		}
		nd.waiting.byPrio = opts.Policy == Priority
		s.nodes[n] = nd
	}
	for i := range g.Tasks {
		s.pending[i] = int32(len(g.Tasks[i].Deps))
		if g.Tasks[i].Kind == ptg.KindInner {
			s.overlapOn = true
		}
	}
	if err := s.faultInit(); err != nil {
		return nil, err
	}
	if err := s.stealInit(); err != nil {
		return nil, err
	}
	// The coalescing plan and its member countdowns mirror the real
	// runtime's.
	var err error
	if s.plan, err = g.PlanBundles(opts.Coalesce); err != nil {
		return nil, err
	}
	s.bundleRem = make([]int32, len(s.plan.Bundles))
	for i, b := range s.plan.Bundles {
		s.bundleRem[i] = int32(len(b.Members))
	}
	for _, r := range g.Roots() {
		s.taskReady(r, 0)
	}

	progressEvery := len(g.Tasks) / 128
	if progressEvery == 0 {
		progressEvery = 1
	}
	var makespan time.Duration
	var polled int
	for s.events.Len() > 0 && s.ferr == nil {
		// Poll the context every few hundred events: cheap enough to be
		// invisible, fine enough that a cancelled simulation stops within
		// microseconds of real time.
		if polled++; opts.Ctx != nil && polled&255 == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return nil, &ptg.CancelError{Engine: "desim", Done: s.done, Total: len(g.Tasks), Err: err}
			}
		}
		ev := heap.Pop(&s.events).(event)
		switch ev.kind {
		case evTaskDone:
			if ev.at > makespan {
				makespan = ev.at
			}
			s.done++
			if opts.OnProgress != nil && (s.done%progressEvery == 0 || s.done == len(g.Tasks)) {
				opts.OnProgress(int64(s.done), int64(len(g.Tasks)))
			}
			s.notePause(ev.node, ev.at)
			s.release(ev.task, ev.at)
			// Free the core and pull the next waiter if any.
			nd := s.nodes[ev.node]
			nd.idleCores = append(nd.idleCores, ev.core)
			if nd.waiting.Len() > 0 {
				it := heap.Pop(&nd.waiting).(waitItem)
				s.start(it.task, ev.at)
			}
		case evMsgArrive:
			s.satisfy(ev.task, ev.at)
		case evBundleArrive:
			for _, m := range s.plan.Bundles[ev.task].Members {
				s.satisfy(m.Task, ev.at)
			}
		case evSendMsg:
			s.sendMsg(ev.task, ev.core, ev.at)
		case evSendBundle:
			s.sendBundleAt(ev.task, ev.at)
		case evStealReturn:
			if ev.at > makespan {
				makespan = ev.at
			}
			s.done++
			s.cnt.MigratedTasks++
			s.cnt.MigratedBytes += s.g.Tasks[ev.task].Mig.InBytes + s.g.Tasks[ev.task].Mig.OutBytes
			if opts.OnProgress != nil && (s.done%progressEvery == 0 || s.done == len(g.Tasks)) {
				opts.OnProgress(int64(s.done), int64(len(g.Tasks)))
			}
			s.release(ev.task, ev.at)
		}
	}
	if s.ferr != nil {
		// Graceful degradation: the structured report says which transfer
		// blew the recovery deadline, after how many attempts.
		return nil, s.ferr
	}
	if s.done != len(g.Tasks) {
		return nil, fmt.Errorf("desim: quiesced after %d of %d tasks (dependency deadlock)", s.done, len(g.Tasks))
	}
	res := &Result{
		Counters: s.cnt,
		Makespan: makespan,
		BusyTime: make([]time.Duration, g.NumNodes),
		Tasks:    s.done,
	}
	// Every forced migration is one steal on the thief's side.
	res.StealsRemote = res.MigratedTasks
	for n, nd := range s.nodes {
		res.BusyTime[n] = nd.busy
	}
	if opts.Fabric != nil {
		res.Messages = opts.Fabric.Messages
		res.BytesSent = opts.Fabric.BytesSent
		res.Bundles = opts.Fabric.Bundles
		res.Segments = opts.Fabric.Segments
	}
	if s.overlapOn {
		res.OverlapRatio = trace.OverlapRatio(s.commIv, s.innerIv)
	}
	return res, nil
}

// taskReady is called when a task's last input arrived at time at.
func (s *sim) taskReady(idx int32, at time.Duration) {
	if thief, ok := s.forced[idx]; ok {
		s.migrate(idx, thief, at)
		return
	}
	t := &s.g.Tasks[idx]
	nd := s.nodes[t.Node]
	if len(nd.idleCores) > 0 {
		s.start(idx, at)
		return
	}
	s.seq++
	heap.Push(&nd.waiting, waitItem{task: idx, prio: t.Priority, seq: s.seq})
}

// start runs the task on an idle core of its node beginning at time at.
func (s *sim) start(idx int32, at time.Duration) {
	t := &s.g.Tasks[idx]
	nd := s.nodes[t.Node]
	core := nd.idleCores[len(nd.idleCores)-1]
	nd.idleCores = nd.idleCores[:len(nd.idleCores)-1]
	// A paused node starts nothing until its window ends; a slow core
	// stretches the task inside its timed window — both mirror the real
	// engine's worker loop.
	at = s.pausedUntil(t.Node, at)
	d := s.opts.Cost(t)
	if d < 0 {
		d = 0
	}
	d += s.slowCoreExtra(t.Node, core)
	nd.busy += d
	end := at + d
	if s.overlapOn {
		switch t.Kind {
		case ptg.KindInner:
			s.cnt.InteriorTasks++
			s.innerIv = append(s.innerIv, trace.Span{Start: int64(at), End: int64(end)})
		case ptg.KindBorder:
			s.cnt.BorderTasks++
		}
	}
	if s.opts.Trace != nil && (s.opts.TraceNode < 0 || s.opts.TraceNode == t.Node) {
		s.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: t.Node, Core: core, Start: at, End: end,
		})
	}
	s.seq++
	heap.Push(&s.events, event{at: end, seq: s.seq, kind: evTaskDone, task: idx, node: t.Node, core: core})
}

// release propagates a finished task's outputs to its consumers.
func (s *sim) release(idx int32, at time.Duration) {
	t := &s.g.Tasks[idx]
	for _, e := range t.Succs {
		if s.g.Tasks[e.Succ].Node == t.Node {
			s.satisfy(e.Succ, at)
			continue
		}
		if bi := s.plan.Of(e.Succ, e.Dep); bi >= 0 {
			// The bundle leaves when its last member is produced;
			// events process in time order, so the decrement that
			// reaches zero carries the departure time.
			s.bundleRem[bi]--
			if s.bundleRem[bi] == 0 {
				s.sendBundleAt(bi, at)
			}
			continue
		}
		s.sendMsg(e.Succ, e.Dep, at)
	}
}

// deferPastPause reschedules a send whose source node sits inside a
// fault-injected pause window, firing it when the window ends. Returns
// true when the send was deferred.
func (s *sim) deferPastPause(src int32, at time.Duration, kind evKind, task, core int32) bool {
	if s.fplan == nil || s.pauseUntil[src] <= at {
		return false
	}
	s.seq++
	heap.Push(&s.events, event{at: s.pauseUntil[src], seq: s.seq, kind: kind, task: task, node: src, core: core})
	return true
}

// sendMsg prices one point-to-point cross-node transfer departing at time
// at (deferring first if the source node is paused) and schedules its
// arrival.
func (s *sim) sendMsg(sIdx, di int32, at time.Duration) {
	c := &s.g.Tasks[sIdx]
	d := &c.Deps[di]
	src := s.g.Tasks[d.Producer].Node
	if s.deferPastPause(src, at, evSendMsg, sIdx, di) {
		return
	}
	// Fault identity: exactly the fields the real engine's Message carries.
	id := fault.MsgID{Src: src, Dst: c.Node, Task: sIdx, Dep: di}
	arrive, ok := s.sendCross(id, d.Bytes, 0, at)
	if !ok {
		return
	}
	if s.overlapOn {
		s.commIv = append(s.commIv, trace.Span{Start: int64(at), End: int64(arrive)})
	}
	s.seq++
	heap.Push(&s.events, event{at: arrive, seq: s.seq, kind: evMsgArrive, task: sIdx, node: c.Node})
}

// sendBundleAt prices one coalesced bundle departing at time at (deferring
// first if the source node is paused) and schedules its arrival.
func (s *sim) sendBundleAt(bi int32, at time.Duration) {
	b := &s.plan.Bundles[bi]
	if s.deferPastPause(b.Src, at, evSendBundle, bi, 0) {
		return
	}
	// Bundle fault identity: 1-based plan index, exactly the
	// Message.Bundle the real engine hashes.
	id := fault.MsgID{Src: b.Src, Dst: b.Dst, Bundle: bi + 1}
	arrive, ok := s.sendCross(id, b.WireBytes(), len(b.Members), at)
	if !ok {
		return
	}
	if s.overlapOn {
		s.commIv = append(s.commIv, trace.Span{Start: int64(at), End: int64(arrive)})
	}
	s.seq++
	heap.Push(&s.events, event{at: arrive, seq: s.seq, kind: evBundleArrive, task: bi, node: b.Dst})
}

// satisfy accounts one input arrival for a task.
func (s *sim) satisfy(idx int32, at time.Duration) {
	if at > s.ready[idx] {
		s.ready[idx] = at
	}
	s.pending[idx]--
	if s.pending[idx] == 0 {
		s.taskReady(idx, s.ready[idx])
	}
}
