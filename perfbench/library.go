package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	castencil "castencil"
	"castencil/internal/core"
	"castencil/internal/metrics"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/trace"
)

// libSpec pins one library workload: the problem, its decomposition, the
// process layout and the worker count. Every other execution knob is left
// at the library default, so a change of default is measured as a user
// would see it.
type libSpec struct {
	name    string
	variant castencil.Variant
	cfg     castencil.Config // Init is drawn per solve
	ranks   int              // 1 = one process; >1 = loopback TCP mesh
	workers int              // per rank
	// tailP is the pinned solve_ms_tail percentile: the highest one that
	// keeps ten samples beyond it at the run length in BENCHMARK.json.
	tailP float64
	// tile and halo size the direct pool, pack/unpack and kernel timings:
	// the workload's tile edge and its deepest halo.
	tile, halo int
}

var fineGrain = libSpec{
	name: "fine-grain", variant: castencil.Base,
	cfg:   castencil.Config{N: 256, TileRows: 8, P: 1, Steps: 20},
	ranks: 1, workers: 2, tailP: 75, tile: 8, halo: 1,
}

var coarseMesh = libSpec{
	name: "coarse-mesh", variant: castencil.CA,
	cfg:   castencil.Config{N: 2048, TileRows: 128, P: 2, Q: 1, Steps: 20, StepSize: 5},
	ranks: 2, workers: 1, tailP: 75, tile: 128, halo: 5,
}

// latencyLimitMS is the per-operation latency limit goodput counts
// against, on every workload.
const latencyLimitMS = 1000

// unattributedTolMS bounds the traced pass's median per-operation time
// that no layer span accounts for.
const unattributedTolMS = 1.0

// newRNG derives a workload's input stream from the run seed.
func newRNG(seed uint64, workload string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// gridSeed draws a nonzero HashInit seed (zero means the library default).
func gridSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// mesh is a loopback TCP mesh of in-process ranks, each transport
// reporting into its own stencild_net_* registry.
type mesh struct {
	ts   []*castencil.NetTransport
	regs []*castencil.NetMetricsRegistry
}

func connectMesh(ranks int) (*mesh, error) {
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m := &mesh{ts: make([]*castencil.NetTransport, ranks), regs: make([]*castencil.NetMetricsRegistry, ranks)}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		m.regs[r] = metrics.NewRegistry()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m.ts[r], errs[r] = castencil.NetConnect(r, addrs, castencil.NetOptions{Listener: lns[r], Metrics: m.regs[r]})
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.close()
		for r, t := range m.ts {
			if t == nil {
				lns[r].Close()
			}
		}
		return nil, fmt.Errorf("mesh: %w", err)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, t := range m.ts {
		if t != nil {
			t.Close()
		}
	}
}

// wire sums the frames and bytes every rank has sent so far.
func (m *mesh) wire() (frames, bytes int64) {
	sent := metrics.Labels{"dir": "sent"}
	for _, reg := range m.regs {
		f, _ := reg.CounterValue("stencild_net_frames_total", sent)
		b, _ := reg.CounterValue("stencild_net_bytes_total", sent)
		frames += f
		bytes += b
	}
	return frames, bytes
}

// onRanks calls fn for every rank concurrently and returns rank 0's result
// (the one holding the gathered grid) with the wall time of the slowest.
func onRanks(m *mesh, fn func(rank int) (*castencil.RealResult, error)) (time.Duration, *castencil.RealResult, error) {
	res := make([]*castencil.RealResult, len(m.ts))
	errs := make([]error, len(m.ts))
	var wg sync.WaitGroup
	start := time.Now()
	for r := range m.ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res[r], errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return time.Since(start), res[0], errors.Join(errs...)
}

// solve is one untraced castencil.Run of the workload — on every rank when
// m is non-nil, in one process otherwise.
func solve(spec libSpec, m *mesh, seed uint64) (time.Duration, *castencil.RealResult, error) {
	cfg := spec.cfg
	cfg.Init = castencil.HashInit(seed)
	if m == nil {
		t0 := time.Now()
		res, err := castencil.Run(spec.variant, cfg, castencil.WithWorkers(spec.workers))
		return time.Since(t0), res, err
	}
	return onRanks(m, func(r int) (*castencil.RealResult, error) {
		return castencil.Run(spec.variant, cfg, castencil.WithWorkers(spec.workers),
			castencil.WithCluster(castencil.ClusterOptions{Transport: m.ts[r]}))
	})
}

// hookConduit passes a rank's transport through to castencil.Run and notes
// when the run crosses two of its boundaries: Begin is called once the task
// graph is built, right before the runtime executes it, and Unbind is the
// runtime's last act before the distributed gather.
type hookConduit struct {
	castencil.Conduit
	begin, unbind time.Time
}

func (h *hookConduit) Begin() {
	h.begin = time.Now()
	h.Conduit.Begin()
}

func (h *hookConduit) Unbind() {
	h.Conduit.Unbind()
	h.unbind = time.Now()
}

// tracedOut is what a traced solve leaves for the per-layer metrics.
type tracedOut struct {
	events []trace.Event   // task and comm events of every rank
	exec   []time.Duration // runtime.Run wall per rank
}

// solveTraced is one traced solve with spans around each layer call. In one
// process it makes the calls castencil.Run makes — core.BuildGraph,
// runtime.Run, core.Gather — itself; on a mesh it calls castencil.Run per
// rank and takes the layer boundaries from the rank's transport.
func solveTraced(spec libSpec, m *mesh, seed uint64, log *spanLog, op int) (time.Duration, *castencil.RealResult, tracedOut, error) {
	cfg := spec.cfg
	cfg.Init = castencil.HashInit(seed)
	root := log.reserve()
	if m == nil {
		tr := castencil.NewTrace()
		o := castencil.BuildRunOptions(castencil.WithWorkers(spec.workers), castencil.WithTrace(tr), castencil.WithTraceComm())
		cfg.WithBodies = true
		t0 := time.Now()
		g, err := core.BuildGraph(spec.variant, cfg)
		t1 := time.Now()
		log.add(op, root, 0, "core.build", t0, t1)
		if err != nil {
			return 0, nil, tracedOut{}, err
		}
		part, err := cfg.Partition()
		if err != nil {
			return 0, nil, tracedOut{}, err
		}
		t2 := time.Now()
		res, err := runtime.Run(g, execOptions(o))
		t3 := time.Now()
		log.add(op, root, 0, "runtime.exec", t2, t3)
		if err != nil {
			return 0, nil, tracedOut{}, err
		}
		full, err := core.Gather(part, res.Stores)
		t4 := time.Now()
		log.add(op, root, 0, "core.gather", t3, t4)
		log.finish(root, op, 0, 0, "solve", t0, t4)
		out := tracedOut{events: tr.Events(), exec: []time.Duration{t3.Sub(t2)}}
		return t4.Sub(t0), &castencil.RealResult{Grid: full, Partition: part, Exec: res}, out, err
	}
	trs := make([]*castencil.Trace, len(m.ts))
	hooks := make([]*hookConduit, len(m.ts))
	for r := range m.ts {
		trs[r] = castencil.NewTrace()
		hooks[r] = &hookConduit{Conduit: m.ts[r]}
	}
	start := time.Now()
	wall, res, err := onRanks(m, func(r int) (*castencil.RealResult, error) {
		id := log.reserve()
		s := time.Now()
		res, err := castencil.Run(spec.variant, cfg, castencil.WithWorkers(spec.workers),
			castencil.WithTrace(trs[r]), castencil.WithTraceComm(),
			castencil.WithCluster(castencil.ClusterOptions{Transport: hooks[r]}))
		e := time.Now()
		h := hooks[r]
		if err == nil {
			log.add(op, id, r, "core.build", s, h.begin)
			log.add(op, id, r, "runtime.exec", h.begin, h.unbind)
			log.add(op, id, r, "core.gather", h.unbind, e)
		}
		log.finish(id, op, root, r, "castencil.Run", s, e)
		return res, err
	})
	log.finish(root, op, 0, 0, "solve", start, start.Add(wall))
	if err != nil {
		return 0, nil, tracedOut{}, err
	}
	var out tracedOut
	for r := range m.ts {
		out.events = append(out.events, trs[r].Events()...)
		out.exec = append(out.exec, hooks[r].unbind.Sub(hooks[r].begin))
	}
	return wall, res, out, nil
}

// execOptions lowers the facade's option bag to the runtime's the way
// castencil.Run does for a single-process run without work stealing.
func execOptions(o castencil.RunOptions) runtime.Options {
	return runtime.Options{
		Workers:    o.Workers,
		Sched:      o.Sched,
		Policy:     o.Policy,
		Coalesce:   o.Coalesce,
		Fault:      o.Fault,
		Recovery:   o.Recovery,
		Trace:      o.Trace,
		TraceComm:  o.TraceComm,
		Intercept:  o.Intercept,
		Ctx:        o.Ctx,
		OnProgress: o.Progress,
	}
}

// solveRec is one solve's checkable output.
type solveRec struct {
	seed   uint64
	wallMS float64
	digest string
}

// setUpLibrary brings the workload's system up — the mesh, when it has one
// — and runs the untimed warm-up solve, setupRepeats times, keeping the
// last. It returns each set-up's time and the warm-up outputs to check.
func setUpLibrary(spec libSpec, rng *rand.Rand) (*mesh, []float64, []solveRec, error) {
	var m *mesh
	var setups []float64
	var warm []solveRec
	for i := 0; i < setupRepeats; i++ {
		if m != nil {
			m.close()
			m = nil
		}
		t0 := time.Now()
		if spec.ranks > 1 {
			var err error
			if m, err = connectMesh(spec.ranks); err != nil {
				return nil, nil, nil, err
			}
		}
		seed := gridSeed(rng)
		wall, res, err := solve(spec, m, seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			if m != nil {
				m.close()
			}
			return nil, nil, nil, fmt.Errorf("warm-up solve: %w", err)
		}
		warm = append(warm, solveRec{seed: seed, wallMS: ms(wall), digest: gridDigest(res.Grid)})
	}
	return m, setups, warm, nil
}

func runLibrary(spec libSpec, p params) (*report, error) {
	rng := newRNG(p.seed, spec.name)
	m, setups, warm, err := setUpLibrary(spec, rng)
	if err != nil {
		return nil, err
	}
	if m != nil {
		defer m.close()
	}
	if p.traced {
		return traceLibrary(spec, p, m, rng, warm)
	}
	rep := newReport()
	var recs []solveRec
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < p.dur {
		seed := gridSeed(rng)
		wall, res, err := solve(spec, m, seed)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("solve failed: %v", err)
			continue
		}
		recs = append(recs, solveRec{seed: seed, wallMS: ms(wall), digest: gridDigest(res.Grid)})
	}
	phase := time.Since(start)
	goruntime.ReadMemStats(&ms1)
	rep.metrics["rss_peak_mb"] = maxRSSMB()

	timed := rep.attempted
	ok := checkSolves(spec, recs)
	rep.attempted += len(warm)
	rep.failed += countFalse(ok) + countFalse(checkSolves(spec, warm))
	var walls []float64
	good := 0
	for i, r := range recs {
		walls = append(walls, r.wallMS)
		if ok[i] && r.wallMS <= latencyLimitMS {
			good++
		}
	}
	n := spec.cfg.N
	flops := castencil.FlopsPerPoint * float64(n) * float64(n) * float64(spec.cfg.Steps) * float64(len(recs))
	rep.metrics["solve_ms_p50"] = median(walls)
	rep.setTail("solve_ms_tail", walls, spec.tailP)
	// A closed loop issues each solve the moment the previous one returns,
	// so a solve's job latency is its wall time.
	rep.metrics["job_ms_p50"] = rep.metrics["solve_ms_p50"]
	rep.metrics["job_ms_tail"] = rep.metrics["solve_ms_tail"]
	rep.metrics["gflops"] = flops / (sum(walls) / 1e3) / 1e9
	rep.metrics["goodput_jobs_s"] = float64(good) / phase.Seconds()
	rep.metrics["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(timed)
	rep.notef("%d solves in %.1fs; set-ups %v s", len(recs), phase.Seconds(), setups)
	return rep, nil
}

// traceLibrary is the traced pass: it cycles through an untraced solve, a
// traced solve and, on a mesh, a one-process solve of the same problem, so
// tracing overhead and the distribution tax are measured against
// neighbours in time rather than against another run.
func traceLibrary(spec libSpec, p params, m *mesh, rng *rand.Rand, warm []solveRec) (*report, error) {
	rep := newReport()
	log := &spanLog{}
	var untraced, traced, oneProc []float64
	var recs []solveRec
	var frames, wireB, parks, steals []float64
	var taskMS = map[ptg.Kind][]float64{}
	var commMS, overheadUS, workerExecMS []float64
	stats, points, haloBytes, err := graphCounts(spec)
	if err != nil {
		return nil, err
	}
	record := func(seed uint64, wall time.Duration, res *castencil.RealResult, err error) bool {
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("solve failed: %v", err)
			return false
		}
		recs = append(recs, solveRec{seed: seed, wallMS: ms(wall), digest: gridDigest(res.Grid)})
		return true
	}
	start := time.Now()
	for op := 1; time.Since(start) < p.dur; op++ {
		// Untraced, as users run it.
		seed := gridSeed(rng)
		var f0, b0 int64
		if m != nil {
			f0, b0 = m.wire()
		}
		wall, res, err := solve(spec, m, seed)
		if record(seed, wall, res, err) {
			untraced = append(untraced, ms(wall))
			parks = append(parks, float64(sumInts(res.Exec.NodeParks)))
			steals = append(steals, float64(sumInts(res.Exec.NodeSteals)))
			if m != nil {
				f1, b1 := m.wire()
				frames = append(frames, float64(f1-f0))
				wireB = append(wireB, float64(b1-b0))
			}
		}
		// Traced.
		seed = gridSeed(rng)
		wall, res, tout, err := solveTraced(spec, m, seed, log, op)
		if record(seed, wall, res, err) {
			traced = append(traced, ms(wall))
			task, comm := map[ptg.Kind]time.Duration{}, time.Duration(0)
			for _, e := range tout.events {
				switch e.Kind {
				case ptg.KindComm:
					comm += e.Duration()
				case ptg.KindFault:
				default:
					task[e.Kind] += e.Duration()
				}
			}
			var capacity, taskSum time.Duration
			for _, ex := range tout.exec {
				capacity += time.Duration(spec.workers) * ex
			}
			for k, d := range task {
				taskMS[k] = append(taskMS[k], ms(d))
				taskSum += d
			}
			commMS = append(commMS, ms(comm))
			workerExecMS = append(workerExecMS, ms(capacity))
			overheadUS = append(overheadUS, float64(capacity-taskSum-comm)/1e3/float64(stats.Tasks))
		}
		// The same problem in one process, for the distribution tax.
		if m != nil {
			seed = gridSeed(rng)
			wall, res, err := solve(spec, nil, seed)
			if record(seed, wall, res, err) {
				oneProc = append(oneProc, ms(wall))
			}
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("no successful solves in the traced pass")
	}
	path, err := log.write(outDir, spec.name, p.seed)
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)

	rep.attempted += len(warm)
	rep.failed += countFalse(checkSolves(spec, recs)) + countFalse(checkSolves(spec, warm))
	self := log.selfTimes()
	unattr := median(log.unattributed(self))
	if unattr > unattributedTolMS {
		rep.invalidf("median unattributed time per traced solve %.3f ms exceeds the %.1f ms tolerance", unattr, unattributedTolMS)
	}
	nsPerPoint := timeKernel(spec.tile)
	rm := rep.metrics
	rm["core.build_ms"] = median(log.byName("core.build", 0, self))
	rm["runtime.exec_ms"] = median(log.byName("runtime.exec", 0, self))
	rm["core.gather_ms"] = median(log.byName("core.gather", 0, self))
	rm["ptg.tasks"] = float64(stats.Tasks)
	rm["ptg.deps"] = float64(stats.Deps)
	for _, k := range []ptg.Kind{ptg.KindInit, ptg.KindInterior, ptg.KindBoundary} {
		rm["runtime.task_ms."+k.String()] = median(taskMS[k])
	}
	rm["runtime.comm_ms"] = median(commMS)
	rm["runtime.overhead_us_per_task"] = median(overheadUS)
	rm["runtime.parks"] = median(parks)
	rm["runtime.steals"] = median(steals)
	rm["runtime.pool_ns_per_op"] = timePool(spec.tile * spec.halo * 8)
	rm["grid.pack_ns_per_kb"], rm["grid.unpack_ns_per_kb"] = timePackUnpack(spec.tile, spec.halo)
	rm["grid.halo_mb"] = float64(haloBytes) / 1e6
	rm["stencil.ns_per_point"] = nsPerPoint
	rm["stencil.points"] = float64(points)
	rm["stencil.share"] = float64(points) * nsPerPoint / (median(workerExecMS) * 1e6)
	if m != nil {
		rm["netcomm.frames"] = median(frames)
		rm["netcomm.wire_mb"] = median(wireB) / 1e6
		rm["netcomm.dist_tax_ms"] = median(untraced) - median(oneProc)
		if !allEqual(frames) {
			rep.notef("netcomm.frames varied between solves: %v", frames)
		}
	}
	rm["bench.trace_overhead"] = median(traced)/median(untraced) - 1
	rm["bench.unattributed_ms"] = unattr
	rm["bench.geometry_reuse_share"] = 1 // every solve repeats the pinned geometry
	rm["bench.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	rep.notef("%d untraced, %d traced, %d one-process solves; untraced p50 %.2f ms, traced p50 %.2f ms",
		len(untraced), len(traced), len(oneProc), median(untraced), median(traced))
	return rep, nil
}

// graphCounts returns the workload graph's exact task and dependency
// counts, its point updates (CA's redundant ghost updates included) and the
// halo bytes its tasks pack and unpack, from a cost-only build.
func graphCounts(spec libSpec) (ptg.Stats, int64, int64, error) {
	g, err := core.BuildGraph(spec.variant, spec.cfg)
	if err != nil {
		return ptg.Stats{}, 0, 0, err
	}
	var points, copyPoints int64
	for _, t := range g.Tasks {
		points += int64(t.Hint.Updates + t.Hint.RedundantUpdates)
		copyPoints += int64(t.Hint.CopyPoints)
	}
	return g.ComputeStats(), points, copyPoints * 8, nil
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func countFalse(ok []bool) int {
	n := 0
	for _, b := range ok {
		if !b {
			n++
		}
	}
	return n
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
