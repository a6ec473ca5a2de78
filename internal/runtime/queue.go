package runtime

import (
	"container/heap"
	"fmt"
	"strings"
)

// Sched named the runtime's two schedulers, the shared per-node queue and
// per-worker work-stealing deques. Only the shared queue remains; Sched is
// kept as the type of the deprecated Options.Sched field and of the
// facade's deprecated aliases, and selects nothing.
type Sched int

const (
	// SharedQueue is one Policy-ordered ready queue per node, shared by
	// all of the node's workers — the runtime's only scheduler.
	SharedQueue Sched = iota
	// WorkStealing runs the shared queue too; the per-worker deques it
	// once selected are gone.
	WorkStealing
)

func (s Sched) String() string {
	switch s {
	case SharedQueue:
		return "shared"
	case WorkStealing:
		return "steal"
	}
	return "unknown"
}

// SchedNames lists the queue orders ParseSched accepts, for flag help.
const SchedNames = "fifo, lifo, priority"

// ParseSched maps a -sched flag value to the ready-queue Policy. "shared"
// is a synonym of "fifo" and "prio" of "priority"; "steal", "ws" and
// "work-stealing" are deprecated spellings of "fifo", accepted so job specs
// and scripts written for the removed work-stealing scheduler keep working
// (it ordered its node queue FIFO too).
func ParseSched(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "fifo", "shared", "steal", "ws", "work-stealing":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "priority", "prio":
		return PriorityOrder, nil
	}
	return 0, fmt.Errorf("runtime: unknown scheduler %q (valid: %s)", name, SchedNames)
}

// Policy selects the per-node ready-queue discipline, the analog of
// PaRSEC's pluggable schedulers: it orders the one queue each node's
// workers share.
type Policy int

const (
	// FIFO runs tasks in the order they became ready.
	FIFO Policy = iota
	// LIFO runs the most recently readied task first (depth-first-ish,
	// better cache locality on tile chains).
	LIFO
	// PriorityOrder runs the highest ptg.Task.Priority first; ties go to
	// the earliest-readied task.
	PriorityOrder
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case PriorityOrder:
		return "priority"
	}
	return "unknown"
}

// readyQueue is a non-thread-safe queue of ready task indices; callers hold
// the node lock.
type readyQueue interface {
	push(task int32, prio int32)
	pop() (int32, bool)
	size() int
}

func newReadyQueue(p Policy) readyQueue {
	switch p {
	case LIFO:
		return &lifoQueue{}
	case PriorityOrder:
		return &prioQueue{}
	default:
		return &fifoQueue{}
	}
}

type fifoQueue struct {
	items []int32
	head  int
}

func (q *fifoQueue) push(t int32, _ int32) { q.items = append(q.items, t) }
func (q *fifoQueue) size() int             { return len(q.items) - q.head }
func (q *fifoQueue) pop() (int32, bool) {
	if q.head >= len(q.items) {
		return 0, false
	}
	t := q.items[q.head]
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > len(q.items)/2:
		// Compact once the dead prefix dominates: a queue that never
		// fully drains (steady streaming) would otherwise retain every
		// task ever pushed. Moving < len/2 live items after >= len/2
		// pops keeps this amortized O(1).
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return t, true
}

type lifoQueue struct{ items []int32 }

func (q *lifoQueue) push(t int32, _ int32) { q.items = append(q.items, t) }
func (q *lifoQueue) size() int             { return len(q.items) }
func (q *lifoQueue) pop() (int32, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	t := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return t, true
}

type prioItem struct {
	task int32
	prio int32
	seq  int64
}

type prioQueue struct {
	h   prioHeap
	seq int64
}

func (q *prioQueue) push(t int32, prio int32) {
	q.seq++
	heap.Push(&q.h, prioItem{task: t, prio: prio, seq: q.seq})
}

func (q *prioQueue) size() int { return len(q.h) }

func (q *prioQueue) pop() (int32, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	it := heap.Pop(&q.h).(prioItem)
	// Shrink the backing array after large bursts: heap.Pop re-slices but
	// never releases capacity, so a one-time spike would pin its peak
	// footprint for the rest of the run.
	if c := cap(q.h); c >= 64 && len(q.h) <= c/4 {
		nh := make(prioHeap, len(q.h), c/2)
		copy(nh, q.h)
		q.h = nh
	}
	return it.task, true
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)   { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
