// Package server is the stencil-as-a-service layer: a job manager over the
// castencil.Run/Sim facade with a bounded admission queue (explicit
// backpressure instead of hangs), priority classes, a concurrency-limited
// executor pool that shares the host's worker budget across jobs, per-job
// lifecycle state machines with deadlines and cancellation (context
// threading through both engines), streaming progress, live metrics, and a
// graceful drain for daemon shutdown. cmd/stencild fronts it with HTTP
// (http.go).
package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	castencil "castencil"
)

// State is a job's lifecycle position. The machine is strictly
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled            (cancelled before an executor picked it up)
//
// and terminal states never transition again.
type State string

// Lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Priority is a job's admission class: within the queue, all high jobs
// dispatch before any normal job, which dispatch before any low job; FIFO
// within a class.
type Priority int

// Priority classes, best first.
const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "normal"
	}
}

// ParsePriority maps a submit-body spelling to a class ("" = normal).
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return PriorityNormal, fmt.Errorf("server: unknown priority %q (high, normal, low)", s)
}

// Spec is one job request — the JSON submit body. Fields map onto the
// facade's Config and functional options; string-typed knobs go through
// the same canonical parsers the command-line flags use, so every spelling
// a flag accepts the daemon accepts too.
type Spec struct {
	// Engine selects the execution engine: "real" (castencil.Run, exact
	// numerics; the default) or "sim" (castencil.Sim, virtual time).
	Engine string `json:"engine,omitempty"`
	// Variant is "base", "ca" or "wf" (default "ca"). Ignored when Plan
	// is "auto".
	Variant string `json:"variant,omitempty"`
	// Plan, when "auto", runs the AutoPlan kernel-family planner against
	// the machine model first and executes the recommended configuration
	// (base, CA with the winning step size, or WF with the winning
	// wavefront width) — the paper's section-VII "transparent CA" as a
	// per-request decision.
	Plan string `json:"plan,omitempty"`

	N        int `json:"n"`
	Tile     int `json:"tile"`
	Nodes    int `json:"nodes,omitempty"` // perfect square, default 1
	Steps    int `json:"steps"`
	StepSize int `json:"step_size,omitempty"`
	// Wavefront is the WF variant's block width (0 = library default).
	Wavefront int `json:"wavefront,omitempty"`
	// Seed selects the deterministic initial condition (HashInit); 0 means
	// the library default (seed 1). Two jobs with equal geometry and seed
	// produce bitwise-identical grids, whatever else runs concurrently.
	Seed uint64 `json:"seed,omitempty"`

	// Workers is the per-node worker count for real jobs; 0 lets the
	// manager divide its worker budget across concurrent jobs.
	Workers  int    `json:"workers,omitempty"`
	Sched    string `json:"sched,omitempty"`
	Coalesce string `json:"coalesce,omitempty"`
	// Transform selects a graph-transformation pass ("none" or "split":
	// inner/border task splitting for communication–computation overlap).
	// Rejected at admission for the wf variant and for plan=auto (the
	// planner may pick wf).
	Transform string  `json:"transform,omitempty"`
	Fault     string  `json:"fault,omitempty"`
	Machine   string  `json:"machine,omitempty"` // sim + plan=auto; default NaCL
	Ratio     float64 `json:"ratio,omitempty"`

	// Ranks marks the job distributed: it runs across this many stencild
	// processes over the daemon's -ranks mesh (rank 0 broadcasts the spec,
	// every follower executes it with the shared transport). Must equal the
	// mesh size, needs the real engine, and is only accepted by rank 0.
	// 0 (the default) runs single-process.
	Ranks int `json:"ranks,omitempty"`
	// Steal selects the inter-node work-stealing policy of a distributed
	// job: "off" (default), "greedy", or "gated". Validated at admission
	// with the same parser the -steal flag uses; anything but off needs
	// Ranks. The broadcast spec carries the raw string, so every rank
	// resolves the identical policy.
	Steal string `json:"steal,omitempty"`

	Priority string `json:"priority,omitempty"`
	// TimeoutMS is the job's run deadline in milliseconds (0 = the
	// manager's default). A job past its deadline stops promptly and
	// reports failed with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Tenant names the submitting tenant for the fleet gateway's weighted
	// fair-share admission (stencilgate); "" is the default tenant. The
	// daemon itself validates and carries it but applies no policy.
	Tenant string `json:"tenant,omitempty"`
	// Cache controls the fleet gateway's content-addressed result cache
	// for this job: "" (cacheable, the default) or "bypass" (force
	// re-execution). The daemon itself runs every admitted job regardless.
	Cache string `json:"cache,omitempty"`
}

// buildSpec is a Spec resolved through the canonical parsers: everything a
// job run needs, validated at admission so a bad request is rejected
// before it ever queues.
type buildSpec struct {
	engine   string // "real" or "sim"
	variant  castencil.Variant
	planAuto bool
	cfg      castencil.Config
	prio     Priority
	timeout  time.Duration
	workers  int
	policy   castencil.Policy
	coalesce castencil.CoalesceMode
	fault    *castencil.FaultPlan
	machine  *castencil.Machine
	ratio    float64
	ranks    int
	steal    castencil.StealMode
}

// build validates the spec and resolves every string knob through the same
// parser its command-line flag uses.
func (s Spec) build() (*buildSpec, error) {
	b := &buildSpec{engine: strings.ToLower(s.Engine), ratio: s.Ratio}
	switch b.engine {
	case "", "real", "run":
		b.engine = "real"
	case "sim":
		b.engine = "sim"
	default:
		return nil, fmt.Errorf("server: unknown engine %q (real, sim)", s.Engine)
	}
	switch strings.ToLower(s.Variant) {
	case "", "ca":
		b.variant = castencil.CA
	case "base":
		b.variant = castencil.Base
	case "wf":
		b.variant = castencil.WF
	default:
		return nil, fmt.Errorf("server: unknown variant %q (base, ca, wf)", s.Variant)
	}
	switch strings.ToLower(s.Plan) {
	case "":
	case "auto":
		b.planAuto = true
	default:
		return nil, fmt.Errorf("server: unknown plan %q (only \"auto\")", s.Plan)
	}
	if s.N <= 0 || s.Tile <= 0 || s.Steps <= 0 {
		return nil, fmt.Errorf("server: n, tile and steps must be positive (got n=%d tile=%d steps=%d)", s.N, s.Tile, s.Steps)
	}
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 1
	}
	p := 1
	for p*p < nodes {
		p++
	}
	if p*p != nodes {
		return nil, fmt.Errorf("server: nodes = %d is not a perfect square", nodes)
	}
	b.cfg = castencil.Config{N: s.N, TileRows: s.Tile, P: p, Steps: s.Steps, StepSize: s.StepSize, Wavefront: s.Wavefront}
	if s.Seed != 0 {
		b.cfg.Init = castencil.HashInit(s.Seed)
	}
	var err error
	if b.prio, err = ParsePriority(s.Priority); err != nil {
		return nil, err
	}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("server: timeout_ms must be >= 0")
	}
	b.timeout = time.Duration(s.TimeoutMS) * time.Millisecond
	if s.Workers < 0 {
		return nil, fmt.Errorf("server: workers must be >= 0")
	}
	b.workers = s.Workers
	if s.Sched != "" {
		if _, b.policy, err = castencil.ParseSched(s.Sched); err != nil {
			return nil, err
		}
	}
	if s.Coalesce != "" {
		if b.coalesce, err = castencil.ParseCoalesce(s.Coalesce); err != nil {
			return nil, err
		}
	}
	if s.Transform != "" {
		tm, err := castencil.ParseTransform(s.Transform)
		if err != nil {
			return nil, err
		}
		if tm != castencil.TransformNone {
			if b.variant == castencil.WF {
				return nil, fmt.Errorf("server: spec rejected: transform %q is not supported with the wf variant", s.Transform)
			}
			if b.planAuto {
				return nil, fmt.Errorf("server: spec rejected: transform %q cannot combine with plan=auto (the planner may pick wf)", s.Transform)
			}
		}
		b.cfg.Transform = tm
	}
	if b.fault, err = castencil.ParseFaultPlan(s.Fault); err != nil {
		return nil, err
	}
	if s.Ranks < 0 {
		return nil, fmt.Errorf("server: ranks must be >= 0, got %d", s.Ranks)
	}
	if s.Ranks > 0 {
		if s.Ranks < 2 {
			return nil, fmt.Errorf("server: a distributed job needs ranks >= 2, got %d", s.Ranks)
		}
		if b.engine != "real" {
			return nil, fmt.Errorf("server: distributed jobs (ranks=%d) need the real engine, not %q", s.Ranks, b.engine)
		}
		if s.Ranks > nodes {
			return nil, fmt.Errorf("server: ranks=%d exceeds the job's %d virtual nodes", s.Ranks, nodes)
		}
	}
	b.ranks = s.Ranks
	if b.steal, err = castencil.ParseSteal(s.Steal); err != nil {
		return nil, err
	}
	if b.steal != castencil.StealOff && s.Ranks == 0 {
		return nil, fmt.Errorf("server: steal=%q needs a distributed job (ranks >= 2)", s.Steal)
	}
	switch strings.ToLower(s.Cache) {
	case "", "default", CacheBypass:
	default:
		return nil, fmt.Errorf("server: unknown cache mode %q (\"\" or %q)", s.Cache, CacheBypass)
	}
	if len(s.Tenant) > 128 {
		return nil, fmt.Errorf("server: tenant name exceeds 128 bytes")
	}
	machineName := s.Machine
	if machineName == "" {
		machineName = "NaCL"
	}
	if b.machine, err = castencil.MachineByName(machineName); err != nil {
		return nil, err
	}
	// Validate the geometry eagerly so admission errors beat queue time:
	// the partition must exist, and a deep-halo request's parameter (CA
	// step size, WF width) may not exceed the smallest tile dimension (the
	// core's own rule — checking it here turns a would-be run failure into
	// an immediate 400).
	part, err := b.cfg.Partition()
	if err != nil {
		return nil, fmt.Errorf("server: spec rejected: %w", err)
	}
	if b.variant == castencil.CA && !b.planAuto && s.StepSize > 0 {
		if minDim := part.MinTileDim(); s.StepSize > minDim {
			return nil, fmt.Errorf("server: spec rejected: CA step_size %d exceeds smallest tile dimension %d", s.StepSize, minDim)
		}
	}
	if b.variant == castencil.WF && !b.planAuto && s.Wavefront > 0 {
		if minDim := part.MinTileDim(); s.Wavefront > minDim {
			return nil, fmt.Errorf("server: spec rejected: WF wavefront %d exceeds smallest tile dimension %d", s.Wavefront, minDim)
		}
	}
	return b, nil
}

// Job is one unit of service work: a Spec moving through the lifecycle
// state machine under the manager's executor pool.
type Job struct {
	// ID is the manager-assigned identifier ("job-000001", monotone).
	ID string
	// Spec is the request as submitted.
	Spec Spec

	build *buildSpec

	mu        sync.Mutex
	state     State
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelReq bool
	cancelFn  func() // cancels the running job's context (nil until running)
	real      *castencil.RealResult
	sim       *castencil.SimResult
	plan      *castencil.Plan

	// done closes when the job reaches a terminal state.
	done chan struct{}

	progDone  atomic.Int64
	progTotal atomic.Int64
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error of a failed job (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// RealResult returns the exact-execution result of a done real job.
func (j *Job) RealResult() *castencil.RealResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.real
}

// SimResult returns the virtual-time result of a done sim job.
func (j *Job) SimResult() *castencil.SimResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sim
}

// Plan returns the AutoPlan outcome of a plan=auto job (nil otherwise or
// before planning ran).
func (j *Job) Plan() *castencil.Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.plan
}

// View is a JSON-ready snapshot of a job, served by the status endpoints
// and the progress stream.
type View struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority string `json:"priority"`
	Engine   string `json:"engine"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// TasksDone/TasksTotal are the live progress counters streamed from
	// the engine; Progress is their ratio in [0,1].
	TasksDone  int64   `json:"tasks_done"`
	TasksTotal int64   `json:"tasks_total"`
	Progress   float64 `json:"progress"`

	// Plan reports the AutoPlan decision of a plan=auto job: the chosen
	// kernel family ("base", "ca", "wf"), its parameter (step size for CA,
	// wavefront width for WF) and its predicted GFLOP/s. PlanStepSize is
	// the legacy two-way field (0 = not CA).
	PlanStepSize *int     `json:"plan_step_size,omitempty"`
	PlanGFLOPS   *float64 `json:"plan_gflops,omitempty"`
	PlanFamily   *string  `json:"plan_family,omitempty"`
	PlanWidth    *int     `json:"plan_width,omitempty"`
}

// Snapshot captures the job's current state for serialization.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	v := View{
		ID:          j.ID,
		State:       j.state,
		Priority:    j.build.prio.String(),
		Engine:      j.build.engine,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.plan != nil {
		s, g := j.plan.BestStepSize, j.plan.BestGFLOPS
		fam, w := j.plan.BestFamily.String(), j.plan.BestWidth
		v.PlanStepSize, v.PlanGFLOPS = &s, &g
		v.PlanFamily, v.PlanWidth = &fam, &w
	}
	j.mu.Unlock()
	v.TasksDone = j.progDone.Load()
	v.TasksTotal = j.progTotal.Load()
	if v.State == StateDone {
		// The engines throttle progress callbacks; a finished job is by
		// definition fully progressed.
		v.TasksDone = v.TasksTotal
	}
	if v.TasksTotal > 0 {
		v.Progress = float64(v.TasksDone) / float64(v.TasksTotal)
	}
	return v
}
