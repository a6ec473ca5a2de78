package runtime

import (
	"encoding/binary"
	"strings"
	"testing"

	"castencil/internal/fault"
	"castencil/internal/ptg"
)

// scriptConduit is rank 0 of a two-rank run whose peer is a script: at the
// start barrier it feeds the bound run a fixed list of inbound messages, as
// if they had arrived off the wire. Sends (acks back to the peer) vanish,
// and the other collectives succeed at once.
type scriptConduit struct {
	inbound []Message
	deliver func(Message)
}

func (c *scriptConduit) Rank() int  { return 0 }
func (c *scriptConduit) Ranks() int { return 2 }
func (c *scriptConduit) Begin()     {}
func (c *scriptConduit) Bind(_ int, deliver func(Message), _ func(error)) error {
	c.deliver = deliver
	return nil
}
func (c *scriptConduit) Unbind()            {}
func (c *scriptConduit) Send(Message) error { return nil }
func (c *scriptConduit) Barrier(tag string) error {
	if tag == "start" {
		for _, m := range c.inbound {
			c.deliver(m)
		}
	}
	return nil
}
func (c *scriptConduit) Gather(_ string, payload []byte) ([][]byte, error) {
	return [][]byte{payload, nil}, nil
}
func (c *scriptConduit) Abort(string) {}

// remoteGraph is the smallest distributed exchange: task 0 on node 1 (the
// peer rank's) sends an 8-byte payload to task 1 on node 0 (ours), which
// consumes it from a buffer slot.
func remoteGraph(t testing.TB) *ptg.Graph {
	t.Helper()
	b := ptg.NewBuilder(2)
	slot := b.AllocBufSlot(0)
	prod, err := b.AddTask(ptg.Task{ID: tid("prod", 0, 0, 0), Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := b.AddTask(ptg.Task{ID: tid("cons", 0, 0, 0), Node: 0, Epoch: 1,
		Run: func(env ptg.Env) { PutBuf(env.TakeBufSlot(slot)) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddDepIdx(cons, prod, ptg.Dep{Bytes: 8,
		Pack:   func(ptg.Env) []byte { return GetBuf(8) },
		Unpack: func(env ptg.Env, data []byte) { env.PutBufSlot(slot, data) },
	}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// legitPayload is the message the peer really sends for remoteGraph's one
// cross dependency: point to point, or as the plan's single bundle.
func legitPayload(coalesce bool) Message {
	if !coalesce {
		return Message{Src: 1, Dst: 0, Task: 1, Dep: 0, Data: GetBuf(8)}
	}
	data := GetBuf(16)
	binary.LittleEndian.PutUint32(data, 1)
	binary.LittleEndian.PutUint32(data[4:], 8)
	return Message{Src: 1, Dst: 0, Bundle: 1, Data: data}
}

func runScripted(g *ptg.Graph, coalesce, reliable bool, inbound ...Message) (*Result, error) {
	opts := Options{Workers: 1, Dist: &Dist{Rank: 0, Ranks: 2, Net: &scriptConduit{inbound: inbound}}}
	if coalesce {
		opts.Coalesce = ptg.CoalesceStep
	}
	if reliable {
		opts.Recovery = fault.DefaultRecovery()
	}
	return Run(g, opts)
}

// TestRemoteMessageValidation feeds a distributed run inbound messages a
// well-behaved peer never sends — a node index out of range or owned by
// the wrong rank, a task, dep or bundle the graph does not have, an ack
// without the reliable transport — each followed by the legitimate payload.
// Every one must fail the run with an error; none may panic the process.
func TestRemoteMessageValidation(t *testing.T) {
	g := remoteGraph(t)
	p2p := func(mut func(*Message)) Message {
		m := Message{Src: 1, Dst: 0, Task: 1, Dep: 0, Data: GetBuf(8)}
		mut(&m)
		return m
	}
	cases := []struct {
		name               string
		coalesce, reliable bool
		m                  Message
	}{
		{"dst-out-of-range", false, false, p2p(func(m *Message) { m.Dst = 99 })},
		{"dst-negative", false, false, p2p(func(m *Message) { m.Dst = -1 })},
		{"dst-peer-node", false, false, p2p(func(m *Message) { m.Dst = 1 })},
		{"src-out-of-range", false, true, p2p(func(m *Message) { m.Src, m.Seq = 7, 1 })},
		{"src-own-node", false, false, p2p(func(m *Message) { m.Src = 0 })},
		{"task-out-of-range", false, false, p2p(func(m *Message) { m.Task = 1000 })},
		{"task-negative", false, false, p2p(func(m *Message) { m.Task = -3 })},
		{"task-on-peer-node", false, false, p2p(func(m *Message) { m.Task = 0 })},
		{"dep-out-of-range", false, false, p2p(func(m *Message) { m.Dep = 5 })},
		{"bundle-without-plan", false, false, p2p(func(m *Message) { m.Bundle = 1 })},
		{"bundle-beyond-plan", true, false, p2p(func(m *Message) { m.Bundle = 2 })},
		{"bundle-negative", true, false, p2p(func(m *Message) { m.Bundle = -1 })},
		{"point-to-point-for-bundled-dep", true, false, p2p(func(*Message) {})},
		{"ack-without-reliable", false, false, Message{Src: 1, Dst: 0, Seq: 1, Ack: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runScripted(g, tc.coalesce, tc.reliable, tc.m, legitPayload(tc.coalesce))
			if err == nil || !strings.Contains(err.Error(), "runtime: ") {
				t.Fatalf("hostile message %+v: err = %v, want a run failure", tc.m, err)
			}
		})
	}
	// The same script minus the hostile message completes: the checks
	// admit what a real peer sends, in both delivery modes.
	for _, coalesce := range []bool{false, true} {
		for _, reliable := range []bool{false, true} {
			res, err := runScripted(g, coalesce, reliable, legitPayload(coalesce))
			if err != nil {
				t.Fatalf("coalesce=%v reliable=%v: legitimate message failed the run: %v", coalesce, reliable, err)
			}
			if res.Completed != 1 {
				t.Errorf("coalesce=%v reliable=%v: completed %d tasks, want 1", coalesce, reliable, res.Completed)
			}
		}
	}
}

// TestRemoteDuplicateTransferRejected replays the legitimate payload twice,
// point to point and as a bundle, on the plain wire and under the reliable
// transport with two fresh sequence numbers. The copy must never reach the
// store: the run fails on it, or — when the run completes before the comm
// goroutine gets to it — it is counted as dropped. It must never race the
// consumer for the buffer slot or refill the slot after consumption.
func TestRemoteDuplicateTransferRejected(t *testing.T) {
	g := remoteGraph(t)
	for _, coalesce := range []bool{false, true} {
		for _, reliable := range []bool{false, true} {
			for i := 0; i < 10; i++ {
				a, b := legitPayload(coalesce), legitPayload(coalesce)
				if reliable {
					a.Seq, b.Seq = 1, 2
				}
				res, err := runScripted(g, coalesce, reliable, a, b)
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), "twice") {
						t.Fatalf("coalesce=%v reliable=%v: duplicate failed the run with %v, want a duplicate-transfer error", coalesce, reliable, err)
					}
				case res.Dropped != 1 && !reliable:
					t.Fatalf("coalesce=%v: duplicate neither failed the run nor was dropped (dropped %d)", coalesce, res.Dropped)
				}
				if err == nil && res.Stores[0].LiveBufSlots() != 0 {
					t.Fatalf("coalesce=%v reliable=%v: the duplicate refilled a consumed buffer slot", coalesce, reliable)
				}
			}
		}
	}
}

// FuzzRemoteMessage throws arbitrary inbound headers and payloads at a
// distributed run of remoteGraph, point to point or coalesced, with or
// without the reliable transport. The legitimate payload follows, so the run
// always ends; whatever the fuzzed message says, it must end without a
// panic.
func FuzzRemoteMessage(f *testing.F) {
	f.Add(int32(1), int32(0), int32(1), int32(0), int32(0), uint64(0), false, false, false, make([]byte, 8))
	f.Add(int32(1), int32(0), int32(0), int32(0), int32(1), uint64(0), false, true, false,
		[]byte{1, 0, 0, 0, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int32(1), int32(0), int32(0), int32(0), int32(0), uint64(1), true, false, true, []byte(nil))
	f.Add(int32(1), int32(99), int32(1000), int32(-1), int32(3), uint64(2), false, true, true, []byte{9, 0, 0, 0})
	g := remoteGraph(f)
	f.Fuzz(func(t *testing.T, src, dst, task, dep, bundle int32, seq uint64, ack, coalesce, reliable bool, payload []byte) {
		m := Message{Src: src, Dst: dst, Task: task, Dep: dep, Bundle: bundle, Seq: seq, Ack: ack}
		if payload != nil {
			// The run takes ownership of inbound payloads; the fuzzer's
			// input must stay untouched.
			m.Data = append(GetBuf(len(payload))[:0], payload...)
		}
		runScripted(g, coalesce, reliable, m, legitPayload(coalesce))
	})
}
