package desim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"castencil/internal/fault"
	"castencil/internal/machine"
	"castencil/internal/netsim"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

func TestFaultDropRetransmitVirtualTime(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.3}
	g := chainGraph(t, 30, 3, 1024)
	run := func(p *fault.Plan) *Result {
		res, err := Run(g, Options{
			Cores: 2, Cost: constCost(time.Microsecond),
			Fabric: netsim.NewFabric(machine.NaCL().Net, 3),
			Fault:  p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	faulty := run(plan)
	if faulty.Fault.Dropped == 0 {
		t.Fatal("no drops injected at drop=0.3 over 29 messages")
	}
	if faulty.Fault.Retransmits != faulty.Fault.Dropped || faulty.Fault.Timeouts != faulty.Fault.Dropped {
		t.Errorf("retransmits/timeouts %d/%d != drops %d",
			faulty.Fault.Retransmits, faulty.Fault.Timeouts, faulty.Fault.Dropped)
	}
	// Each drop costs at least one ack timeout of waiting on the chain's
	// critical path, and every attempt is extra wire traffic.
	if faulty.Makespan <= clean.Makespan {
		t.Errorf("drops did not lengthen the makespan: %v vs %v", faulty.Makespan, clean.Makespan)
	}
	if faulty.Messages != clean.Messages+faulty.Fault.Dropped+faulty.Fault.Duplicated {
		t.Errorf("messages %d, want %d clean + %d drops + %d dups",
			faulty.Messages, clean.Messages, faulty.Fault.Dropped, faulty.Fault.Duplicated)
	}
	// Rerunning the same plan injects the identical schedule.
	if again := run(plan); again.Fault != faulty.Fault || again.Makespan != faulty.Makespan {
		t.Errorf("schedule not deterministic: %+v vs %+v", again.Fault, faulty.Fault)
	}
}

func TestFaultDeadlineReportVirtualTime(t *testing.T) {
	// Node 1 pauses for a minute after its epoch-0 tasks; its neighbors'
	// epoch-1 payloads then sit unacknowledged on its dark comm thread,
	// and the senders must degrade gracefully with a structured report.
	// (A serial chain would not trip the deadline: there the paused node
	// is itself the next sender, and its queued messages simply wait out
	// the pause — same as the real engine.)
	plan := &fault.Plan{
		Pauses: []fault.NodePause{{Node: 1, AfterTasks: 2, Pause: time.Minute}},
	}
	rec := &fault.Recovery{Timeout: 5 * time.Millisecond, Deadline: 40 * time.Millisecond}
	const nodes, epochs, tiles = 3, 4, 2
	b := ptg.NewBuilder(nodes)
	for e := 0; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				if _, err := b.AddTask(ptg.Task{ID: tid("t", e, n, k), Node: int32(n), Epoch: int32(e)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for e := 1; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				for m := 0; m < nodes; m++ {
					d := ptg.Dep{}
					if m != n {
						d.Bytes = 64
					}
					if err := b.AddDep(tid("t", e, n, k), tid("t", e-1, m, k), d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, Options{
		Cores: 2, Cost: constCost(time.Microsecond),
		Fabric: netsim.NewFabric(machine.NaCL().Net, nodes),
		Fault:  plan, Recovery: rec,
	})
	if err == nil {
		t.Fatal("simulation with a minute-long pause beat a 40ms deadline")
	}
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("error is %T (%v), want *fault.Report", err, err)
	}
	if rep.ID.Dst != 1 || rep.Deadline != rec.Deadline {
		t.Errorf("implausible report: %+v", rep)
	}
}

func TestFaultTimeDomainVirtualTime(t *testing.T) {
	// Slow cores and short pauses stretch the makespan but change no
	// wire accounting.
	g := chainGraph(t, 10, 1, 0)
	clean, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{
		SlowCores: []fault.SlowCore{{Node: 0, Core: 0, Extra: time.Millisecond, Tasks: 3}},
		Pauses:    []fault.NodePause{{Node: 0, AfterTasks: 5, Pause: 4 * time.Millisecond}},
	}
	rec := fault.DefaultRecovery()
	slow, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond), Fault: plan, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Makespan + 3*time.Millisecond + 4*time.Millisecond
	if slow.Makespan != want {
		t.Errorf("makespan = %v, want %v (3 slow tasks + one 4ms pause)", slow.Makespan, want)
	}
	if slow.Messages != clean.Messages || slow.Fault.Dropped != 0 {
		t.Errorf("time-domain faults altered wire accounting: %+v", slow.Fault)
	}
}

// parityGraph builds one graph usable by both engines: a cross-node chain
// whose deps carry real Pack/Unpack closures (exercised by the real
// runtime, ignored by the simulator).
func parityGraph(t *testing.T, length, nodes int) *ptg.Graph {
	t.Helper()
	b := ptg.NewBuilder(nodes)
	for i := 0; i < length; i++ {
		i := i
		if _, err := b.AddTask(ptg.Task{
			ID: tid("t", i, 0, 0), Node: int32(i % nodes), Epoch: int32(i),
			Run: func(e ptg.Env) {
				v := 0
				if i > 0 {
					v = e.Take(fmt.Sprintf("v%d", i-1)).(int)
				}
				e.Put(fmt.Sprintf("v%d", i), v+1)
			},
		}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			prev := i - 1
			d := ptg.Dep{}
			if prev%nodes != i%nodes {
				d.Bytes = 8
				d.Pack = func(e ptg.Env) []byte {
					buf := runtime.GetBuf(8)
					binary.LittleEndian.PutUint64(buf, uint64(e.Take(fmt.Sprintf("v%d", prev)).(int)))
					return buf
				}
				d.Unpack = func(e ptg.Env, data []byte) {
					e.Put(fmt.Sprintf("v%d", prev), int(binary.LittleEndian.Uint64(data)))
					runtime.PutBuf(data)
				}
			}
			if err := b.AddDep(tid("t", i, 0, 0), tid("t", prev, 0, 0), d); err != nil {
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

// TestFaultScheduleParityWithRealEngine is the cross-engine determinism
// contract: for the same graph and plan, the simulator and the real
// runtime must inject byte-identical fault schedules — same messages
// dropped, duplicated and delayed, and therefore the same recovery work.
func TestFaultScheduleParityWithRealEngine(t *testing.T) {
	plan := &fault.Plan{Seed: 17, Drop: 0.2, Dup: 0.2, Delay: 0.3, DelayBy: 100 * time.Microsecond}
	// A generous ack timeout keeps the real engine free of spurious
	// retransmissions, matching the simulator's ideal-ack model.
	rec := &fault.Recovery{Timeout: 100 * time.Millisecond, Deadline: 30 * time.Second}
	const length, nodes = 40, 4
	g := parityGraph(t, length, nodes)

	sim, err := Run(g, Options{
		Cores: 2, Cost: constCost(time.Microsecond),
		Fabric: netsim.NewFabric(machine.NaCL().Net, nodes),
		Fault:  plan, Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	real, err := runtime.Run(g, runtime.Options{Workers: 2, Fault: plan, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}

	if sim.Fault.Dropped != real.Fault.Dropped ||
		sim.Fault.Duplicated != real.Fault.Duplicated ||
		sim.Fault.Delayed != real.Fault.Delayed {
		t.Errorf("injected schedules diverged: sim %+v, real %+v", sim.Fault, real.Fault)
	}
	if sim.Fault.Retransmits != real.Fault.Retransmits {
		t.Errorf("recovery work diverged: sim %d retransmits, real %d",
			sim.Fault.Retransmits, real.Fault.Retransmits)
	}
	if sim.Fault.Dropped == 0 || sim.Fault.Duplicated == 0 || sim.Fault.Delayed == 0 {
		t.Errorf("weak parity test — plan injected nothing: %+v", sim.Fault)
	}
	// Wire accounting agrees: attempts plus duplicates, identically.
	if sim.Messages != real.Messages {
		t.Errorf("message counts diverged: sim %d, real %d", sim.Messages, real.Messages)
	}
	if got := real.Stores[(length-1)%nodes].Take(fmt.Sprintf("v%d", length-1)).(int); got != length {
		t.Errorf("real run computed %d, want %d", got, length)
	}
}

// TestFaultScheduleParityCoalesced repeats the contract on the coalesced
// lane path, where the fault identity is the bundle's plan index.
func TestFaultScheduleParityCoalesced(t *testing.T) {
	plan := &fault.Plan{Seed: 29, Drop: 0.25, Dup: 0.25, Delay: 0.25, DelayBy: 100 * time.Microsecond}
	rec := &fault.Recovery{Timeout: 100 * time.Millisecond, Deadline: 30 * time.Second}
	const nodes, epochs, tiles = 3, 6, 3
	b := ptg.NewBuilder(nodes)
	for e := 0; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				if _, err := b.AddTask(ptg.Task{
					ID: tid("t", e, n, k), Node: int32(n), Epoch: int32(e),
					Run: func(ptg.Env) {},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for e := 1; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				for m := 0; m < nodes; m++ {
					d := ptg.Dep{}
					if m != n {
						d.Bytes = 64
						d.Pack = func(ptg.Env) []byte { return runtime.GetBuf(64) }
						d.Unpack = func(_ ptg.Env, data []byte) { runtime.PutBuf(data) }
					}
					if err := b.AddDep(tid("t", e, n, k), tid("t", e-1, m, k), d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sim, err := Run(g, Options{
		Cores: 2, Cost: constCost(time.Microsecond),
		Fabric:   netsim.NewFabric(machine.NaCL().Net, nodes),
		Coalesce: ptg.CoalesceStep, Fault: plan, Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	real, err := runtime.Run(g, runtime.Options{
		Workers: 2, Coalesce: ptg.CoalesceStep, Fault: plan, Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Fault.Dropped != real.Fault.Dropped ||
		sim.Fault.Duplicated != real.Fault.Duplicated ||
		sim.Fault.Delayed != real.Fault.Delayed ||
		sim.Fault.Retransmits != real.Fault.Retransmits {
		t.Errorf("bundle schedules diverged: sim %+v, real %+v", sim.Fault, real.Fault)
	}
	if sim.Bundles != real.Bundles || sim.Segments != real.Segments {
		t.Errorf("bundle accounting diverged: sim %d/%d, real %d/%d",
			sim.Bundles, real.Bundles, sim.Segments, real.Segments)
	}
	if sim.Fault.Dropped == 0 || sim.Fault.Duplicated == 0 {
		t.Errorf("weak parity test — plan injected nothing: %+v", sim.Fault)
	}
}
