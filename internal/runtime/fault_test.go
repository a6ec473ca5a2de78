package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// genTimeout is an ack timeout generous enough that in-process delivery
// (microseconds) does not time out spuriously on an idle host: every
// retransmit is then caused by an injected drop, making Retransmits ==
// Dropped an exact identity. A loaded host can stretch an ack past it;
// TestFaultCoalescedExactlyOnce accounts for such retransmits with its wire
// ledger instead.
const genTimeout = 100 * time.Millisecond

func genRecovery() *fault.Recovery {
	return &fault.Recovery{Timeout: genTimeout, Deadline: 10 * time.Second}
}

// auditWire checks the wire accounting identities of a successful
// point-to-point run: Messages counts one original per cross dependency
// plus each injected duplicate and each retransmission, every logical
// transfer was delivered (Dropped is logical under the reliable
// transport), and the receiver deduplicated at most the injected
// duplicate volume.
func auditWire(t *testing.T, res *Result, crossDeps int) {
	t.Helper()
	if res.Messages != crossDeps+res.Fault.Duplicated+res.Fault.Retransmits {
		t.Errorf("wire accounting broken: %d messages != %d deps + %d dups + %d retransmits",
			res.Messages, crossDeps, res.Fault.Duplicated, res.Fault.Retransmits)
	}
	if res.Dropped != 0 {
		t.Errorf("successful run lost %d logical transfers", res.Dropped)
	}
	if res.Fault.DupDrops > res.Fault.Duplicated+res.Fault.Retransmits {
		t.Errorf("receiver deduplicated %d copies, only %d redundant ones existed",
			res.Fault.DupDrops, res.Fault.Duplicated+res.Fault.Retransmits)
	}
}

func TestFaultDelayOnlyUnreliable(t *testing.T) {
	// A pure-delay plan must not enable the reliable transport: no
	// sequencing, no retransmits, message count exactly the cross deps.
	plan := &fault.Plan{Seed: 5, Delay: 0.5, DelayBy: time.Millisecond}
	if plan.NeedsRecovery() {
		t.Fatal("pure delay plan should not need recovery")
	}
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[19%3].Take("v19").(int); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Messages != 19 {
		t.Errorf("messages = %d, want 19", res.Messages)
	}
	if res.Fault.Delayed == 0 {
		t.Error("no delays injected at delay=0.5")
	}
	if res.Fault.Retransmits != 0 || res.Fault.DupDrops != 0 {
		t.Errorf("unreliable run did recovery work: %+v", res.Fault)
	}
}

func TestFaultDropRecoveryExactCounters(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.25}
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[19%3].Take("v19").(int); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Fault.Dropped == 0 {
		t.Fatal("no drops injected at drop=0.25 over 19 messages")
	}
	// Every injected drop forces exactly one ack timeout and one
	// retransmission; the generous timeout rules out spurious ones.
	if res.Fault.Retransmits != res.Fault.Dropped || res.Fault.Timeouts != res.Fault.Dropped {
		t.Errorf("retransmits/timeouts (%d/%d) != drops (%d)",
			res.Fault.Retransmits, res.Fault.Timeouts, res.Fault.Dropped)
	}
	auditWire(t, res, 19)

	// The injected schedule is a pure function of (seed, identity): a
	// second run must inject the same drops.
	res2, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fault.Dropped != res.Fault.Dropped {
		t.Errorf("drop schedule not deterministic: %d vs %d", res2.Fault.Dropped, res.Fault.Dropped)
	}
}

func TestFaultDupDelayExactlyOnce(t *testing.T) {
	plan := &fault.Plan{Seed: 9, Drop: 0.15, Dup: 0.3, Delay: 0.3, DelayBy: 500 * time.Microsecond}
	g := buildChain(t, 30, 3)
	// NeedsRecovery auto-enables DefaultRecovery; pass an explicit policy
	// with the generous timeout so counter identities stay exact.
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[29%3].Take("v29").(int); got != 30 {
		t.Errorf("final value = %d, want 30 (lost or double-applied delivery)", got)
	}
	if res.Fault.Duplicated == 0 {
		t.Fatal("no duplicates injected at dup=0.3 over 29 messages")
	}
	auditWire(t, res, 29)
}

func TestFaultCoalescedExactlyOnce(t *testing.T) {
	// The -race stress for the coalesced path under drop+dup+delay: the
	// epoch grid audits that every cross payload is delivered exactly
	// once or accounted as dropped, whatever the wire does, and the wire
	// ledger accounts for every retransmit — including spurious ones when
	// a loaded host stretches an ack past genTimeout.
	plan := &fault.Plan{Seed: 11, Drop: 0.25, Dup: 0.25, Delay: 0.3, DelayBy: 300 * time.Microsecond}
	const nodes, epochs, tiles = 3, 5, 4
	eg := buildEpochGrid(t, nodes, epochs, tiles, ptg.TaskID{})
	var wire wireLedger
	res, err := Run(eg.g, Options{Workers: 2, Coalesce: ptg.CoalesceStep, Fault: plan, Recovery: genRecovery(), Intercept: wire.intercept})
	if err != nil {
		t.Fatal(err)
	}
	eg.audit(t, "coalesced+faults", res)
	if res.Completed != nodes*epochs*tiles {
		t.Errorf("completed %d of %d tasks", res.Completed, nodes*epochs*tiles)
	}
	if res.Fault.Dropped == 0 || res.Fault.Duplicated == 0 {
		t.Fatalf("plan injected nothing on the bundle path: %+v", res.Fault)
	}
	wire.audit(t, plan, res)
}

// wireLedger records, through Options.Intercept, every copy of a sequenced
// data message that reached the wire, per lane sequence: the message's
// fault identity and how many copies of each delivery attempt got past the
// plan.
type wireLedger struct {
	mu   sync.Mutex
	seqs map[wireSeq]*wireAttempts
}

type wireSeq struct {
	src, dst int32
	seq      uint64
}

type wireAttempts struct {
	id     fault.MsgID
	copies map[int32]int // attempt -> copies on the wire
	last   int32         // highest attempt seen on the wire
}

func (l *wireLedger) intercept(m Message, deliver func(Message)) {
	l.mu.Lock()
	if l.seqs == nil {
		l.seqs = make(map[wireSeq]*wireAttempts)
	}
	k := wireSeq{src: m.Src, dst: m.Dst, seq: m.Seq}
	w := l.seqs[k]
	if w == nil {
		w = &wireAttempts{id: msgIDOf(m), copies: make(map[int32]int)}
		l.seqs[k] = w
	}
	w.copies[m.Attempt]++
	w.last = max(w.last, m.Attempt)
	l.mu.Unlock()
	deliver(m)
}

// audit accounts for every attempt of a successful reliable run exactly,
// recomputing drops and duplicates from the pure plan. Attempt a+1 of a
// sequence exists only because attempt a timed out, whether the plan
// dropped a or its ack was merely slow, so:
//   - every ack timeout led to a retransmit;
//   - every attempt up to the last one seen on the wire was either dropped
//     by the plan or reached the wire, once plus one copy per planned dup;
//   - the retransmits after a sequence's last wire attempt, which the
//     interceptor cannot see, are exactly the drops it did not see.
func (l *wireLedger) audit(t *testing.T, plan *fault.Plan, res *Result) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if res.Fault.Retransmits != res.Fault.Timeouts {
		t.Errorf("retransmits %d != timeouts %d", res.Fault.Retransmits, res.Fault.Timeouts)
	}
	lanes := map[[2]int32]uint64{}
	retransmits, drops, dups := 0, 0, 0
	for k, w := range l.seqs {
		lane := [2]int32{k.src, k.dst}
		lanes[lane] = max(lanes[lane], k.seq)
		retransmits += int(w.last)
		for a := int32(0); a <= w.last; a++ {
			n := w.copies[a]
			if plan.ShouldDrop(w.id, a) {
				drops++
				if n != 0 {
					t.Errorf("%+v attempt %d: the plan drops it, yet %d copies reached the wire", k, a, n)
				}
				continue
			}
			want := 1
			if plan.ShouldDup(w.id, a) {
				want, dups = 2, dups+1
			}
			if n != want {
				t.Errorf("%+v attempt %d: %d copies reached the wire, the plan says %d", k, a, n, want)
			}
		}
	}
	seqs := 0
	for _, n := range lanes {
		seqs += int(n)
	}
	if seqs != len(l.seqs) {
		t.Errorf("lane sequences have gaps: %d seen, highest numbers sum to %d", len(l.seqs), seqs)
	}
	if unseen := res.Fault.Retransmits - retransmits; unseen < 0 || res.Fault.Dropped != drops+unseen {
		t.Errorf("retransmits %d (%d seen on the wire), drops %d (%d planned on seen attempts): the unseen retransmits are not exactly the unseen drops",
			res.Fault.Retransmits, retransmits, res.Fault.Dropped, drops)
	}
	if res.Fault.Duplicated != dups {
		t.Errorf("duplicated %d, the plan duplicates %d attempts that reached the wire", res.Fault.Duplicated, dups)
	}
	t.Logf("wire ledger: %d sequences, %d retransmits, %d drops (%d retransmits followed a copy on the wire)",
		len(l.seqs), res.Fault.Retransmits, res.Fault.Dropped, res.Fault.Retransmits-res.Fault.Dropped)
}

func TestFaultPausedNodePastDeadlineReports(t *testing.T) {
	// Node 1 freezes for far longer than the recovery deadline after its
	// second task. Senders waiting on its acks must fail the run fast with
	// a structured report instead of hanging.
	plan := &fault.Plan{
		Pauses: []fault.NodePause{{Node: 1, AfterTasks: 2, Pause: 10 * time.Second}},
	}
	rec := &fault.Recovery{Timeout: 5 * time.Millisecond, Deadline: 40 * time.Millisecond}
	eg := buildEpochGrid(t, 3, 4, 2, ptg.TaskID{})
	start := time.Now()
	res, err := Run(eg.g, Options{Workers: 2, Fault: plan, Recovery: rec})
	if err == nil {
		t.Fatal("run with a dead node completed without error")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("degradation took %v, deadline was 40ms", waited)
	}
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("error is %T (%v), want *fault.Report", err, err)
	}
	if rep.ID.Dst != 1 {
		t.Errorf("report blames node %d, want 1: %+v", rep.ID.Dst, rep)
	}
	if rep.Waited < rec.Deadline || rep.Attempts < 1 {
		t.Errorf("implausible report: %+v", rep)
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	eg.audit(t, "paused-node", res)
}

func TestFaultReliableNoPlanClean(t *testing.T) {
	// Reliable transport with no fault plan: payload ownership must stay
	// sound (sender retains the original, receiver gets a copy) and the
	// fault counters stay zero. Regression for a double-recycle of the
	// retained buffer.
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Recovery: fault.DefaultRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[19%3].Take("v19").(int); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Messages != 19 || res.Fault.Any() {
		t.Errorf("clean reliable run: messages %d, fault %+v", res.Messages, res.Fault)
	}
}

func TestFaultSlowCoreAndStall(t *testing.T) {
	// Time-domain faults perturb only the schedule, never the numerics or
	// the message counts.
	plan := &fault.Plan{
		SlowCores:  []fault.SlowCore{{Node: 1, Core: 0, Extra: 200 * time.Microsecond, Tasks: 5}},
		CommStalls: []fault.CommStall{{Node: 0, After: 1, Stall: time.Millisecond}},
	}
	g := buildChain(t, 12, 2)
	res, err := Run(g, Options{Workers: 2, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[11%2].Take("v11").(int); got != 12 {
		t.Errorf("final value = %d, want 12", got)
	}
	if res.Messages != 11 || res.Fault.Any() {
		t.Errorf("time-domain faults altered wire accounting: messages %d, fault %+v", res.Messages, res.Fault)
	}
}

func TestFaultTraceEvents(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.25}
	g := buildChain(t, 20, 3)
	tr := trace.New()
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	drops, retransmits := 0, 0
	for _, ev := range tr.Events() {
		if ev.Kind != ptg.KindFault {
			continue
		}
		switch ev.ID.Class {
		case "fault:drop":
			drops++
		case "fault:retransmit":
			retransmits++
		}
	}
	if drops != res.Fault.Dropped || retransmits != res.Fault.Retransmits {
		t.Errorf("trace saw %d drops / %d retransmits, counters say %d / %d",
			drops, retransmits, res.Fault.Dropped, res.Fault.Retransmits)
	}
	if drops == 0 {
		t.Error("no fault events traced")
	}
}

func TestFaultNumericsBitwiseStable(t *testing.T) {
	// The determinism contract: under a maskable fault schedule the
	// computed values are identical to a fault-free run, scheduler and
	// coalescing notwithstanding.
	value := func(opts Options) int {
		g := buildChain(t, 24, 3)
		res, err := Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stores[23%3].Take(fmt.Sprintf("v%d", 23)).(int)
	}
	clean := value(Options{Workers: 2})
	plan := &fault.Plan{Seed: 21, Drop: 0.2, Dup: 0.2, Delay: 0.2}
	for run := 0; run < 2; run++ {
		if got := value(Options{Workers: 2, Fault: plan, Recovery: genRecovery()}); got != clean {
			t.Fatalf("run %d diverged under faults: %d vs %d", run, got, clean)
		}
	}
}
