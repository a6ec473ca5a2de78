package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	castencil "castencil"
	"castencil/internal/metrics"
	"castencil/internal/ptg"
)

// Sentinel errors of the admission path. HTTP maps ErrQueueFull to 429 and
// ErrDraining to 503.
var (
	// ErrQueueFull is the backpressure signal: the bounded admission queue
	// is at capacity and the submission is rejected immediately — the
	// service never parks a client on a full queue.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("server: no such job")
)

// Config sizes a Manager.
type Config struct {
	// QueueSize bounds the admission queue across all priority classes
	// (default 64). A submission arriving at a full queue fails with
	// ErrQueueFull.
	QueueSize int
	// MaxJobs is the executor pool size — jobs running concurrently
	// (default 2).
	MaxJobs int
	// WorkerBudget is the total per-node compute workers the manager
	// divides across concurrently running real jobs that do not pin their
	// own count (default GOMAXPROCS, floor 1): a job with Workers=0 runs
	// with max(1, WorkerBudget/(MaxJobs*nodes)) workers per node, so the
	// service's goroutine appetite stays bounded whatever jobs arrive.
	// Worker count never changes numerics, only latency.
	WorkerBudget int
	// DefaultTimeout bounds jobs that do not carry their own timeout_ms
	// (0 = unbounded).
	DefaultTimeout time.Duration
	// Registry receives the service metrics (nil = a fresh registry,
	// exposed via Metrics()).
	Registry *metrics.Registry
	// Transport is the distributed mesh of a multi-rank deployment (nil =
	// single-process daemon). A job submitted with ranks>0 runs across it:
	// rank 0 broadcasts the spec over the mesh and runs with the shared
	// transport while every follower executes the broadcast through
	// RunFollower. Distributed jobs serialize — the mesh carries one run
	// at a time, in the same order on every rank.
	Transport *castencil.NetTransport
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Manager owns the job table, the bounded priority admission queue and the
// executor pool. All exported methods are safe for concurrent use.
type Manager struct {
	cfg Config
	reg *metrics.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [numPriorities][]*Job
	queued   int
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	running  int
	draining bool
	aborting bool // drain deadline passed: stop starting queued jobs
	nextID   uint64

	execWg sync.WaitGroup

	// distMu serializes distributed jobs: every rank must execute mesh
	// broadcasts in the same order, so rank 0 admits one onto the wire at
	// a time (local single-process jobs run unserialized alongside).
	distMu sync.Mutex

	// Instruments. Counter families are documented in DESIGN.md.
	mSubmitted  *metrics.Counter
	mRejected   *metrics.Counter
	mTerminal   map[State]*metrics.Counter
	mTasks      *metrics.Counter
	mMessages   *metrics.Counter
	mBytes      *metrics.Counter
	mBundles    *metrics.Counter
	mSegments   *metrics.Counter
	mRetransmit *metrics.Counter
	mDuration   map[string]*metrics.Histogram // by engine
	mQueueWait  *metrics.Histogram
}

// New starts a manager and its executor pool.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, reg: cfg.Registry, jobs: make(map[string]*Job)}
	m.cond = sync.NewCond(&m.mu)

	r := m.reg
	m.mSubmitted = r.Counter("stencild_jobs_submitted_total", "jobs accepted into the admission queue", nil)
	m.mRejected = r.Counter("stencild_jobs_rejected_total", "submissions rejected by queue-full backpressure", nil)
	m.mTerminal = map[State]*metrics.Counter{
		StateDone:      r.Counter("stencild_jobs_total", "jobs by terminal state", metrics.Labels{"state": "done"}),
		StateFailed:    r.Counter("stencild_jobs_total", "jobs by terminal state", metrics.Labels{"state": "failed"}),
		StateCancelled: r.Counter("stencild_jobs_total", "jobs by terminal state", metrics.Labels{"state": "cancelled"}),
	}
	r.GaugeFunc("stencild_queue_depth", "jobs waiting in the admission queue", nil, func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.queued)
	})
	r.GaugeFunc("stencild_jobs_running", "jobs currently executing", nil, func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.running)
	})
	m.mTasks = r.Counter("stencild_tasks_executed_total", "graph tasks executed across all jobs", nil)
	m.mMessages = r.Counter("stencild_messages_total", "inter-node wire messages across all jobs", nil)
	m.mBytes = r.Counter("stencild_bytes_sent_total", "inter-node wire bytes across all jobs", nil)
	m.mBundles = r.Counter("stencild_bundles_total", "coalesced halo bundles sent across all jobs", nil)
	m.mSegments = r.Counter("stencild_bundle_segments_total", "member transfers carried by coalesced bundles", nil)
	m.mRetransmit = r.Counter("stencild_retransmits_total", "reliable-transport retransmissions across all jobs", nil)
	m.mDuration = map[string]*metrics.Histogram{
		"real": r.Histogram("stencild_job_duration_seconds", "job run wall time by engine", nil, metrics.Labels{"engine": "real"}),
		"sim":  r.Histogram("stencild_job_duration_seconds", "job run wall time by engine", nil, metrics.Labels{"engine": "sim"}),
	}
	m.mQueueWait = r.Histogram("stencild_job_queue_wait_seconds", "time from admission to execution start", nil, nil)

	for i := 0; i < cfg.MaxJobs; i++ {
		m.execWg.Add(1)
		go m.executor()
	}
	return m
}

// Metrics returns the registry the manager reports into.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Transport returns the distributed mesh the manager serves (nil in a
// single-process daemon).
func (m *Manager) Transport() *castencil.NetTransport { return m.cfg.Transport }

// Health is the machine-readable /healthz payload: the daemon's live load
// (for the fleet gateway's load-aware routing) plus its capacity limits and
// transport state. Status mirrors the endpoint's human text line: "ok",
// "draining", or "degraded" (mesh rank down).
type Health struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	MaxJobs    int    `json:"max_jobs"`
	QueueSize  int    `json:"queue_size"`

	// Transport state of a distributed daemon (absent single-process).
	Rank           int `json:"rank,omitempty"`
	Ranks          int `json:"ranks,omitempty"`
	RanksConnected int `json:"ranks_connected,omitempty"`
}

// Health snapshots the manager's live load and transport state.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{
		Status:     "ok",
		QueueDepth: m.queued,
		Running:    m.running,
		MaxJobs:    m.cfg.MaxJobs,
		QueueSize:  m.cfg.QueueSize,
	}
	if m.draining {
		h.Status = "draining"
	}
	m.mu.Unlock()
	if t := m.cfg.Transport; t != nil {
		up, want := t.Connected()
		h.Rank, h.Ranks, h.RanksConnected = t.Rank(), want, up
		if up < want && h.Status == "ok" {
			h.Status = "degraded"
		}
	}
	return h
}

// Submit validates and admits a job, returning it in StateQueued. The
// queue is bounded: a full queue rejects with ErrQueueFull immediately.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	b, err := spec.build()
	if err != nil {
		return nil, err
	}
	if b.ranks > 0 {
		t := m.cfg.Transport
		switch {
		case t == nil:
			return nil, fmt.Errorf("server: distributed job (ranks=%d) needs a daemon started with -ranks", b.ranks)
		case t.Rank() != 0:
			return nil, fmt.Errorf("server: distributed jobs are submitted to rank 0 (this daemon is rank %d)", t.Rank())
		case b.ranks != t.Ranks():
			return nil, fmt.Errorf("server: spec ranks %d does not match the %d-rank mesh", b.ranks, t.Ranks())
		}
	}
	if b.timeout == 0 {
		b.timeout = m.cfg.DefaultTimeout
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if m.queued >= m.cfg.QueueSize {
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrQueueFull
	}
	m.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", m.nextID),
		Spec:      spec,
		build:     b,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.queues[b.prio] = append(m.queues[b.prio], j)
	m.queued++
	m.cond.Signal()
	m.mu.Unlock()
	m.mSubmitted.Inc()
	return j, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists all known jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	copy(out, m.order)
	return out
}

// Cancel stops a job: a queued job transitions to cancelled immediately; a
// running job has its context cancelled and reports cancelled once its
// workers stop (promptly, at task granularity). Cancelling a terminal job
// is a no-op. Unknown ids return ErrNotFound.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		m.removeQueuedLocked(j)
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		m.mu.Unlock()
		m.mTerminal[StateCancelled].Inc()
		return nil
	case StateRunning:
		j.cancelReq = true
		if j.cancelFn != nil {
			j.cancelFn()
		}
	}
	j.mu.Unlock()
	m.mu.Unlock()
	return nil
}

// removeQueuedLocked drops j from its priority queue (both locks held).
func (m *Manager) removeQueuedLocked(j *Job) {
	q := m.queues[j.build.prio]
	for i, cand := range q {
		if cand == j {
			m.queues[j.build.prio] = append(q[:i], q[i+1:]...)
			m.queued--
			return
		}
	}
}

// next blocks until a job is available (highest class first, FIFO within a
// class) or the pool is shutting down (returns nil).
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if !m.aborting {
			for p := Priority(0); p < numPriorities; p++ {
				if q := m.queues[p]; len(q) > 0 {
					j := q[0]
					m.queues[p] = q[1:]
					m.queued--
					m.running++
					return j
				}
			}
		}
		if m.draining {
			return nil
		}
		m.cond.Wait()
	}
}

// executor is one pool worker: it claims jobs in priority order and runs
// them to a terminal state.
func (m *Manager) executor() {
	defer m.execWg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}
}

// workersFor resolves a real job's per-node worker count against the
// manager's budget: an explicit request is honored; otherwise the budget
// is divided evenly across the pool's job slots and the job's nodes.
func (m *Manager) workersFor(b *buildSpec) int {
	if b.workers > 0 {
		return b.workers
	}
	nodes := b.cfg.P * b.cfg.Q
	if nodes <= 0 {
		nodes = b.cfg.P * b.cfg.P
	}
	if nodes <= 0 {
		nodes = 1
	}
	w := m.cfg.WorkerBudget / (m.cfg.MaxJobs * nodes)
	if w < 1 {
		w = 1
	}
	return w
}

// runJob drives one job from running to a terminal state.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled between claim and start — nothing to do.
		j.mu.Unlock()
		return
	}
	if j.cancelReq {
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		m.mTerminal[StateCancelled].Inc()
		return
	}
	b := j.build
	ctx, cancel := context.WithCancel(context.Background())
	if b.timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), b.timeout)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancelFn = cancel
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	defer cancel()
	m.mQueueWait.Observe(wait.Seconds())

	variant, cfg, err := m.resolvePlan(j, b)
	if err != nil {
		m.finishJob(j, err)
		return
	}

	progress := func(done, total int64) {
		j.progDone.Store(done)
		j.progTotal.Store(total)
	}
	switch b.engine {
	case "sim":
		start := time.Now()
		res, err := castencil.Sim(variant, cfg,
			castencil.WithMachine(b.machine),
			castencil.WithRatio(b.ratio),
			castencil.WithCoalesce(b.coalesce),
			castencil.WithFaultPlan(b.fault),
			castencil.WithContext(ctx),
			castencil.WithProgress(progress))
		m.mDuration["sim"].Observe(time.Since(start).Seconds())
		if err == nil {
			m.mTasks.Add(int64(res.Sim.Tasks))
			m.addCounters(res.Counters)
			j.mu.Lock()
			j.sim = res
			j.mu.Unlock()
		}
		m.finishJob(j, err)
	default:
		opts := []castencil.Option{
			castencil.WithWorkers(m.workersFor(b)),
			castencil.WithPolicy(b.policy),
			castencil.WithCoalesce(b.coalesce),
			castencil.WithFaultPlan(b.fault),
			castencil.WithContext(ctx),
			castencil.WithProgress(progress),
		}
		if b.ranks > 0 {
			// Distributed: broadcast the spec so every follower enters the
			// same run, then execute with the shared mesh. The broadcast
			// carries the raw submitted spec — followers re-validate and
			// re-resolve it with the same deterministic parsers and planner,
			// so every rank agrees on the resulting configuration.
			m.distMu.Lock()
			defer m.distMu.Unlock()
			payload, err := json.Marshal(j.Spec)
			if err == nil {
				err = m.cfg.Transport.SendJob(payload)
			}
			if err != nil {
				m.finishJob(j, err)
				return
			}
			opts = append(opts, castencil.WithCluster(castencil.ClusterOptions{
				Transport: m.cfg.Transport,
				Steal:     castencil.StealPolicy{Mode: b.steal, Machine: b.machine},
			}))
		}
		m.execReal(j, variant, cfg, opts)
	}
}

// resolvePlan applies a plan=auto decision, recording it on the job. The
// planner is a deterministic function of the spec and machine model, so
// every rank of a distributed job resolves the identical configuration.
func (m *Manager) resolvePlan(j *Job, b *buildSpec) (castencil.Variant, castencil.Config, error) {
	variant, cfg := b.variant, b.cfg
	if !b.planAuto {
		return variant, cfg, nil
	}
	plan, err := castencil.AutoPlan(cfg, b.machine, planRatio(b.ratio), nil)
	if err != nil {
		return variant, cfg, err
	}
	j.mu.Lock()
	j.plan = plan
	j.mu.Unlock()
	switch {
	case plan.UseCA():
		variant = castencil.CA
		cfg.StepSize = plan.BestStepSize
	case plan.UseWavefront():
		variant = castencil.WF
		cfg.Wavefront = plan.BestWidth
	default:
		variant = castencil.Base
	}
	return variant, cfg, nil
}

// execReal runs a real-engine job to its terminal state and folds the
// outcome into the service counters. On a distributed run, rank 0's result
// carries the global counters (the runtime folds every rank's slice at the
// drain gather) while a follower's carries only its local slice — each
// daemon's metrics report its own rank's view.
func (m *Manager) execReal(j *Job, variant castencil.Variant, cfg castencil.Config, opts []castencil.Option) {
	start := time.Now()
	res, err := castencil.Run(variant, cfg, opts...)
	m.mDuration["real"].Observe(time.Since(start).Seconds())
	if err == nil {
		ex := res.Exec
		m.mTasks.Add(int64(ex.Completed))
		m.addCounters(ex.Counters)
		j.mu.Lock()
		j.real = res
		j.mu.Unlock()
	}
	m.finishJob(j, err)
}

// addCounters folds one run's traffic accounting into the service counters.
func (m *Manager) addCounters(c ptg.Counters) {
	m.mMessages.Add(int64(c.Messages))
	m.mBytes.Add(int64(c.BytesSent))
	m.mBundles.Add(int64(c.Bundles))
	m.mSegments.Add(int64(c.Segments))
	m.mRetransmit.Add(int64(c.Fault.Retransmits))
}

// planRatio maps the spec's ratio (0 = unset) onto AutoPlan's knob, where
// 1 means the real kernel.
func planRatio(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return r
}

// finishJob records the terminal state for a run outcome: nil error means
// done; a cancellation surfaces as cancelled; everything else (including a
// blown deadline) as failed.
func (m *Manager) finishJob(j *Job, err error) {
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	default:
		state = StateFailed
	}
	j.mu.Lock()
	j.state = state
	j.err = err
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	m.mTerminal[state].Inc()
}

// Shutdown drains the service: admission closes immediately (Submit
// returns ErrDraining), queued and running jobs are given until ctx
// expires to finish, and past that every remaining job is cancelled —
// running ones via their contexts, queued ones directly — before Shutdown
// waits out the pool and returns. The executor pool's goroutines are gone
// when it returns; the error is ctx's when the drain had to force-cancel.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.execWg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}

	// Force the drain: stop dispatching queued work, cancel what runs.
	m.mu.Lock()
	m.aborting = true
	var queued []*Job
	for p := Priority(0); p < numPriorities; p++ {
		queued = append(queued, m.queues[p]...)
		m.queues[p] = nil
	}
	m.queued = 0
	var running []*Job
	for _, j := range m.jobs {
		if j.State() == StateRunning {
			running = append(running, j)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range queued {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.err = context.Canceled
			j.finished = time.Now()
			close(j.done)
			m.mTerminal[StateCancelled].Inc()
		}
		j.mu.Unlock()
	}
	for _, j := range running {
		j.mu.Lock()
		j.cancelReq = true
		if j.cancelFn != nil {
			j.cancelFn()
		}
		j.mu.Unlock()
	}
	<-drained
	return ctx.Err()
}
