package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	castencil "castencil"
)

// RunFollower is the distributed follower loop: on every rank but 0 the
// daemon runs it against the mesh, executing each job spec rank 0
// broadcasts. Broadcast jobs bypass the admission queue — rank 0 is
// already committed to the run when the spec arrives, so the follower
// starts immediately instead of waiting behind local work — but they are
// registered in the job table like any other job, so /v1/jobs, the result
// endpoint and the progress stream see them on every rank (a follower's
// result carries its local counter slice and no grid; rank 0 holds the
// gathered field). The loop returns when ctx is cancelled or the
// transport closes.
func (m *Manager) RunFollower(ctx context.Context, t *castencil.NetTransport) error {
	if t.Rank() == 0 {
		return fmt.Errorf("server: RunFollower on rank 0 (rank 0 drives broadcasts, it does not follow them)")
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case payload, ok := <-t.Jobs():
			if !ok {
				return nil
			}
			m.runBroadcast(ctx, t, payload)
		}
	}
}

// runBroadcast executes one spec broadcast by rank 0. A spec this rank
// cannot decode or validate is a divergence from rank 0 (which validated
// the identical bytes with the identical parsers before sending); rather
// than leave rank 0 hanging in the run's start barrier, the follower
// enters the epoch and aborts it, so rank 0's job fails with a structured
// error naming this rank.
func (m *Manager) runBroadcast(ctx context.Context, t *castencil.NetTransport, payload []byte) {
	var spec Spec
	var b *buildSpec
	err := json.Unmarshal(payload, &spec)
	if err == nil {
		b, err = spec.build()
	}
	if err != nil {
		t.Begin()
		t.Abort(fmt.Sprintf("rank %d rejected broadcast spec: %v", t.Rank(), err))
		return
	}
	if b.timeout == 0 {
		b.timeout = m.cfg.DefaultTimeout
	}

	now := time.Now()
	m.mu.Lock()
	m.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", m.nextID),
		Spec:      spec,
		build:     b,
		state:     StateRunning,
		submitted: now,
		done:      make(chan struct{}),
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.running++
	m.mu.Unlock()

	runCtx, cancel := context.WithCancel(ctx)
	if b.timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, b.timeout)
	}
	defer cancel()
	j.mu.Lock()
	j.started = now
	j.cancelFn = cancel
	j.mu.Unlock()

	variant, cfg, err := m.resolvePlan(j, b)
	if err != nil {
		// Same divergence reasoning as a build failure: fail the epoch
		// instead of hanging every rank.
		t.Begin()
		t.Abort(fmt.Sprintf("rank %d planner rejected broadcast: %v", t.Rank(), err))
		m.finishJob(j, err)
	} else {
		opts := []castencil.Option{
			castencil.WithWorkers(m.workersFor(b)),
			castencil.WithPolicy(b.policy),
			castencil.WithCoalesce(b.coalesce),
			castencil.WithFaultPlan(b.fault),
			castencil.WithContext(runCtx),
			castencil.WithProgress(func(done, total int64) {
				j.progDone.Store(done)
				j.progTotal.Store(total)
			}),
			castencil.WithCluster(castencil.ClusterOptions{
				Transport: t,
				Steal:     castencil.StealPolicy{Mode: b.steal, Machine: b.machine},
			}),
		}
		m.execReal(j, variant, cfg, opts)
	}
	m.mu.Lock()
	m.running--
	m.mu.Unlock()
}
