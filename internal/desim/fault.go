package desim

import (
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// This file mirrors the real runtime's fault-injection and recovery layer
// in virtual time. Message-level decisions (drop / duplicate / delay /
// reorder) are pure functions of the fault plan's seed and the message's
// graph identity — the same fault.MsgID the real engine hashes — so a
// simulated run injects the byte-identical schedule a real run would see.
//
// Recovery is modeled as the idealized limit of the real transport: acks
// are free and instantaneous (the real engine excludes them from wire
// accounting for exactly this reason), so a retransmission fires exactly
// one backed-off ack timeout after each dropped attempt and every injected
// drop costs one timeout and one retransmit — the identity the real
// engine's tests pin under a generous timeout. A message whose ack would
// arrive past the recovery deadline (a dropped-forever lane or a
// paused-past-deadline receiver) fails the simulation with the same
// structured *fault.Report the real engine returns.

// faultInit validates and arms the fault plan, mirroring runtime.Run's
// auto-enable rule: plans that drop, duplicate or pause require the
// recovery machinery, so it comes on by default.
func (s *sim) faultInit() error {
	opts := &s.opts
	if err := opts.Fault.Validate(); err != nil {
		return err
	}
	if opts.Recovery == nil && opts.Fault.NeedsRecovery() {
		opts.Recovery = fault.DefaultRecovery()
	}
	if opts.Fault.Active() {
		s.fplan = opts.Fault
	}
	if opts.Recovery != nil {
		s.reliable = true
		s.rec = opts.Recovery.WithDefaults()
	}
	if s.fplan != nil {
		n := s.g.NumNodes
		s.coreSeq = make([][]int, n)
		for i := range s.coreSeq {
			s.coreSeq[i] = make([]int, opts.Cores)
		}
		s.outSeq = make([]int, n)
		s.nodeDone = make([]int, n)
		s.pauseUntil = make([]time.Duration, n)
	}
	return nil
}

// traceFault mirrors the real engine's fault events: Class "fault:<what>",
// I/J the node pair, Kind ptg.KindFault on the comm pseudo-core.
func (s *sim) traceFault(what string, id fault.MsgID, at time.Duration, span time.Duration, bytes int) {
	if s.opts.Trace == nil {
		return
	}
	if s.opts.TraceNode >= 0 && s.opts.TraceNode != id.Src {
		return
	}
	s.opts.Trace.Record(trace.Event{
		ID:   ptg.TaskID{Class: "fault:" + what, I: int(id.Src), J: int(id.Dst)},
		Kind: ptg.KindFault, Node: id.Src, Core: int32(s.opts.Cores),
		Start: at, End: at + span, Msgs: 1, Bytes: bytes,
	})
}

// slowCoreExtra mirrors the real engine's per-(node,core) slow-core
// counters: the plan prices the nth task the core executes.
func (s *sim) slowCoreExtra(node, core int32) time.Duration {
	if s.fplan == nil || len(s.fplan.SlowCores) == 0 {
		return 0
	}
	seq := s.coreSeq[node][core]
	s.coreSeq[node][core]++
	return s.fplan.CoreExtra(node, core, seq)
}

// notePause arms a whole-node pause when the node's completed-task count
// crosses a plan threshold: subsequent task starts and outgoing sends wait
// out the window, and the node's communication thread goes dark (which is
// what trips a sender's recovery deadline when the pause outlasts it).
func (s *sim) notePause(node int32, at time.Duration) {
	if s.fplan == nil {
		return
	}
	s.nodeDone[node]++
	if d := s.fplan.PauseAt(node, s.nodeDone[node]); d > 0 {
		until := at + d
		if until > s.pauseUntil[node] {
			s.pauseUntil[node] = until
		}
		if s.opts.Fabric != nil {
			s.opts.Fabric.Block(int(node), until)
		}
		s.traceFault("pause", fault.MsgID{Src: node, Dst: node}, at, d, 0)
	}
}

// pausedUntil clamps a time to the end of a node's pause window.
func (s *sim) pausedUntil(node int32, at time.Duration) time.Duration {
	if s.fplan != nil && s.pauseUntil[node] > at {
		return s.pauseUntil[node]
	}
	return at
}

// sendCross prices one cross-node logical transfer through the fault plan
// and the fabric, returning the virtual arrival time of its first
// successfully delivered copy. segments > 0 marks a coalesced bundle.
// Returns ok=false after recording a *fault.Report in s.ferr when the
// transfer cannot be acknowledged within the recovery deadline.
func (s *sim) sendCross(id fault.MsgID, bytes, segments int, ready time.Duration) (time.Duration, bool) {
	f := s.opts.Fabric
	src := int(id.Src)
	if s.fplan != nil {
		// The comm stall delays the node's nth outgoing message (and, by
		// NIC serialization, everything queued behind it).
		nth := s.outSeq[src]
		s.outSeq[src]++
		if st := s.fplan.StallAt(id.Src, nth); st > 0 {
			base := f.Free(src)
			if ready > base {
				base = ready
			}
			f.Block(src, base+st)
			s.traceFault("stall", id, base, st, bytes)
		}
	}
	send := func(at time.Duration) time.Duration {
		if segments > 0 {
			return f.SendBundle(src, int(id.Dst), bytes, segments, at)
		}
		return f.Send(src, int(id.Dst), bytes, at)
	}
	if s.fplan == nil {
		return send(ready), true
	}
	attempt := int32(0)
	depart := ready
	for {
		if s.fplan.ShouldDrop(id, attempt) {
			s.cnt.Fault.Dropped++
			s.traceFault("drop", id, depart, 0, bytes)
			f.SendDropped(src, bytes, depart)
			// The ack timeout for this attempt expires unanswered.
			s.cnt.Fault.Timeouts++
			timeout := s.rec.TimeoutAt(attempt)
			if waited := depart + timeout - ready; waited >= s.rec.Deadline {
				s.ferr = &fault.Report{
					ID: id, Seq: uint64(attempt) + 1, Attempts: attempt + 1,
					Waited: waited, Deadline: s.rec.Deadline, Stats: s.cnt.Fault,
				}
				return 0, false
			}
			depart += timeout
			attempt++
			s.cnt.Fault.Retransmits++
			s.traceFault("retransmit", id, depart, 0, bytes)
			continue
		}
		delay := s.fplan.DelayOf(id, attempt)
		if delay > 0 {
			s.cnt.Fault.Delayed++
			s.traceFault("delay", id, depart, delay, bytes)
		}
		arrive := send(depart) + delay
		if s.fplan.ShouldDup(id, attempt) {
			// The duplicate is extra physical traffic the receiver
			// deduplicates on arrival; it never satisfies a dependency.
			s.cnt.Fault.Duplicated++
			s.cnt.Fault.DupDrops++
			s.traceFault("dup", id, depart, 0, bytes)
			f.Send(src, int(id.Dst), bytes, depart)
		}
		if s.reliable {
			// The delivered copy's ack is instant; if even that lands past
			// the deadline (a paused receiver sat on the transfer), the
			// sender has already degraded gracefully.
			if waited := arrive - ready; waited >= s.rec.Deadline {
				s.traceFault("deadline", id, arrive, 0, bytes)
				s.ferr = &fault.Report{
					ID: id, Seq: uint64(attempt) + 1, Attempts: attempt + 1,
					Waited: waited, Deadline: s.rec.Deadline, Stats: s.cnt.Fault,
				}
				return 0, false
			}
		}
		return arrive, true
	}
}
