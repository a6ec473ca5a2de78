package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	castencil "castencil"
	"castencil/internal/gateway"
	"castencil/internal/metrics"
	"castencil/internal/server"
)

// Service-mix deployment and load shape.
const (
	backends = 2
	// clientConns caps the load generator's connections to the gateway.
	clientConns = 2
	// serviceTail pins job_ms_tail and solve_ms_tail: p95 keeps ten of the
	// rate x seconds jobs (950 in 25 s), and of the 45% of them that are
	// backend solves of a given plan, beyond it; p99 would need a thousand.
	serviceTail = 95
	// lateBoundMS and backlogBound are the open-loop validity bounds: a
	// generator running later than this, or more jobs than this queued or
	// running at the gateway, means the run measured a queue, not the path.
	lateBoundMS  = 500
	backlogBound = 32
	// drainLimit bounds the wait for the last jobs after the final arrival;
	// a job still unfinished then counts as timed out.
	drainLimit = 30 * time.Second
)

// serviceRig is one in-process deployment: stencild backends (job manager
// plus HTTP handler) behind one stencilgate, all at their shipped defaults,
// each on its own loopback port.
type serviceRig struct {
	regs   []*metrics.Registry
	mgrs   []*server.Manager
	gw     *gateway.Gateway
	srvs   []*http.Server
	served sync.WaitGroup
	urls   []string // backend base URLs
	base   string   // gateway base URL
	client *http.Client
}

func (r *serviceRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	r.srvs = append(r.srvs, srv)
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startService brings the fleet up and waits until every daemon and the
// gateway report healthy.
func startService() (*serviceRig, error) {
	r := &serviceRig{client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
	}}
	for i := 0; i < backends; i++ {
		reg := metrics.NewRegistry()
		m := server.New(server.Config{Registry: reg})
		r.regs, r.mgrs = append(r.regs, reg), append(r.mgrs, m)
		u, err := r.serve(server.Handler(m))
		if err != nil {
			r.stop()
			return nil, err
		}
		r.urls = append(r.urls, u)
	}
	gw, err := gateway.New(gateway.Config{Backends: r.urls})
	if err != nil {
		r.stop()
		return nil, err
	}
	r.gw = gw
	if r.base, err = r.serve(gateway.Handler(gw)); err != nil {
		r.stop()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range append(append([]string(nil), r.urls...), r.base) {
		for {
			resp, err := r.client.Get(u + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				r.stop()
				return nil, fmt.Errorf("%s not healthy after 10s", u)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return r, nil
}

// stop drains the gateway (its jobs still need the backends), then the
// daemons, then every HTTP server.
func (r *serviceRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.gw != nil {
		_ = r.gw.Shutdown(ctx)
	}
	for _, m := range r.mgrs {
		_ = m.Shutdown(ctx)
	}
	for _, s := range r.srvs {
		_ = s.Shutdown(ctx)
	}
	r.served.Wait()
	r.client.CloseIdleConnections()
}

// submit POSTs a spec to the gateway.
func (r *serviceRig) submit(spec server.Spec) (gateway.View, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return gateway.View{}, 0, err
	}
	resp, err := r.client.Post(r.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return gateway.View{}, 0, err
	}
	defer resp.Body.Close()
	var v gateway.View
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return v, resp.StatusCode, fmt.Errorf("submit answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return v, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&v)
}

func (r *serviceRig) getJSON(path string, out any) error {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// backlog reads the gateway's /healthz: jobs queued plus jobs running.
func (r *serviceRig) backlog() (int, error) {
	resp, err := r.client.Get(r.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var h struct {
		QueueDepth int `json:"queue_depth"`
		Inflight   int `json:"inflight"`
	}
	if err := json.Unmarshal([]byte(last), &h); err != nil {
		return 0, fmt.Errorf("gateway /healthz: %w", err)
	}
	return h.QueueDepth + h.Inflight, nil
}

// views lists every gateway job by ID.
func (r *serviceRig) views() (map[string]gateway.View, error) {
	var list struct {
		Jobs []gateway.View `json:"jobs"`
	}
	if err := r.getJSON("/v1/jobs", &list); err != nil {
		return nil, err
	}
	out := make(map[string]gateway.View, len(list.Jobs))
	for _, v := range list.Jobs {
		out[v.ID] = v
	}
	return out, nil
}

// executed sums the daemons' accepted submissions.
func (r *serviceRig) executed() int64 {
	var n int64
	for _, reg := range r.regs {
		v, _ := reg.CounterValue("stencild_jobs_submitted_total", nil)
		n += v
	}
	return n
}

// jobRec is one job's journey: when it was due and sent, what the gateway
// answered, and its terminal views.
type jobRec struct {
	plan      plannedJob
	due, sent time.Time
	rtt       time.Duration
	id        string
	err       error // refused, failed, timed out or mismatched
	view      gateway.View
	res       server.Result // res.View is the backend's view
	root      int           // span ID of the job in a traced pass
}

func (j *jobRec) executedOnBackend() bool {
	return j.err == nil && j.view.Cache != "hit" && j.view.Cache != "coalesced"
}

func (j *jobRec) jobMS() float64 { return ms(j.view.FinishedAt.Sub(j.due)) }

// prime runs the hot set through the gateway and waits for it: the set-up's
// warm-up, which leaves the hot set in the result cache, so every hot job
// of the measured phase is a cache hit.
func (r *serviceRig) prime(specs []server.Spec) ([]*jobRec, error) {
	var out []*jobRec
	for _, spec := range specs {
		v, _, err := r.submit(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, &jobRec{plan: plannedJob{class: classHot, spec: spec}, id: v.ID})
	}
	for _, j := range out {
		for !j.view.State.Terminal() {
			time.Sleep(2 * time.Millisecond)
			if err := r.getJSON("/v1/jobs/"+j.id, &j.view); err != nil {
				return nil, err
			}
		}
		if j.view.State != server.StateDone {
			return nil, fmt.Errorf("warm-up job %s: %s", j.view.State, j.view.Error)
		}
		if err := r.getJSON("/v1/jobs/"+j.id+"/result", &j.res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runService(p params) (*report, error) {
	rng := newRNG(p.seed, "service-mix")
	sched, hot := serviceSchedule(rng, p.dur)
	var rig *serviceRig
	var setups []float64
	var warm []*jobRec
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		var err error
		if rig, err = startService(); err != nil {
			return nil, err
		}
		js, err := rig.prime(hot)
		if err != nil {
			rig.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm = append(warm, js...)
	}
	defer rig.stop()
	rep := newReport()
	log := &spanLog{}

	// Measured phase: the generator sends each job when due; one monitor
	// samples the gateway backlog.
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	exec0 := rig.executed()
	hits0, _ := rig.gw.Metrics().CounterValue("stencilgate_cache_hits_total", nil)
	recs := make([]*jobRec, len(sched))
	stopMon := make(chan struct{})
	var monWg sync.WaitGroup
	var maxBacklog int
	var monErr error
	monWg.Add(1)
	go func() {
		defer monWg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-tick.C:
			}
			b, err := rig.backlog()
			if err != nil {
				monErr = err
				continue
			}
			if b > maxBacklog {
				maxBacklog = b
			}
		}
	}()
	t0 := time.Now()
	for i, pj := range sched {
		j := &jobRec{plan: pj, due: t0.Add(pj.at)}
		time.Sleep(time.Until(j.due))
		j.sent = time.Now()
		v, _, err := rig.submit(pj.spec)
		j.rtt = time.Since(j.sent)
		j.id, j.err = v.ID, err
		if p.traced && i%2 == 0 {
			// Every other job records its submit span live, so the
			// traced pass can price span recording against the rest.
			j.root = log.reserve()
			log.add(i+1, j.root, 0, "gateway.submit", j.sent, j.sent.Add(j.rtt))
		}
		recs[i] = j
	}
	// Wait for every accepted job to reach a terminal state.
	deadline := time.Now().Add(drainLimit)
	var views map[string]gateway.View
	for {
		var err error
		if views, err = rig.views(); err != nil {
			return nil, err
		}
		pending := 0
		for _, j := range recs {
			if j.err == nil && !views[j.id].State.Terminal() {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopMon)
	monWg.Wait()
	goruntime.ReadMemStats(&ms1)
	rep.metrics["rss_peak_mb"] = maxRSSMB()
	executed := rig.executed() - exec0
	hits1, _ := rig.gw.Metrics().CounterValue("stencilgate_cache_hits_total", nil)

	end := t0
	for _, j := range recs {
		if j.err != nil {
			continue
		}
		j.view = views[j.id]
		switch {
		case !j.view.State.Terminal():
			j.err = fmt.Errorf("job %s still %s after the %v drain limit", j.id, j.view.State, drainLimit)
		case j.view.State != server.StateDone:
			j.err = fmt.Errorf("job %s %s: %s", j.id, j.view.State, j.view.Error)
		default:
			if j.view.FinishedAt.After(end) {
				end = *j.view.FinishedAt
			}
			if err := rig.getJSON("/v1/jobs/"+j.id+"/result", &j.res); err != nil {
				j.err = err
			}
		}
	}
	if monErr != nil {
		rep.invalidf("backlog monitor: %v", monErr)
	}
	phase := end.Sub(t0)

	// Every output is checked after the phase, outside the timings.
	chk := checkJobs(append(append([]*jobRec(nil), warm...), recs...))
	for _, j := range append(warm, recs...) {
		rep.attempted++
		if j.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				rep.notef("job failed: %v", j.err)
			}
		}
	}

	var jobMS, solveMS, hitMS, submitMS, gwQueue, relay, beQueue []float64
	beExec := map[string][]float64{}
	var late time.Duration
	var flops, tasks float64
	good := 0
	seen := map[string]bool{}
	reuse, execs, hits := 0, 0, 0
	for _, j := range recs {
		submitMS = append(submitMS, ms(j.rtt))
		if l := j.sent.Sub(j.due); l > late {
			late = l
		}
		if j.err != nil {
			continue
		}
		jm := j.jobMS()
		jobMS = append(jobMS, jm)
		if jm <= latencyLimitMS {
			good++
		}
		if !j.executedOnBackend() {
			if j.view.Cache == "hit" {
				hits++
				hitMS = append(hitMS, jm)
			}
			continue
		}
		execs++
		g := geometry(j.plan.spec)
		if seen[g] {
			reuse++
		}
		seen[g] = true
		bv := j.res.View
		exec := ms(bv.FinishedAt.Sub(*bv.StartedAt))
		class := "real"
		switch j.plan.class {
		case classAuto:
			class = "auto"
		case classSim:
			class = "sim"
		}
		beExec[class] = append(beExec[class], exec)
		beQueue = append(beQueue, ms(bv.StartedAt.Sub(bv.SubmittedAt)))
		gwQueue = append(gwQueue, ms(j.view.StartedAt.Sub(j.view.SubmittedAt)))
		relay = append(relay, ms(j.view.FinishedAt.Sub(*bv.FinishedAt)))
		if class != "sim" {
			tasks += float64(j.res.Tasks)
		}
		// The solve metrics time runs of a given plan. An auto job's wall
		// also holds its AutoPlan: it varied up to two-fold between runs of
		// one spec, and auto jobs made up most of the solve tail. job_ms,
		// server.exec_ms_p50.auto and core.autoplan_ms report them instead.
		if class == "real" {
			solveMS = append(solveMS, exec)
			n := float64(j.plan.spec.N)
			flops += castencil.FlopsPerPoint * n * n * float64(j.plan.spec.Steps)
		}
	}
	if p.traced {
		for i, j := range recs {
			jobSpans(log, i+1, j)
		}
	}
	if late > lateBoundMS*time.Millisecond {
		rep.invalidf("generator ran %v late, bound %dms", late, lateBoundMS)
	}
	if maxBacklog > backlogBound {
		rep.invalidf("gateway backlog reached %d jobs, bound %d", maxBacklog, backlogBound)
	}
	if int64(hits) != hits1-hits0 {
		rep.notef("cache hits by view %d, by stencilgate_cache_hits_total %d", hits, hits1-hits0)
	}
	rep.notef("%d jobs over %.1fs (%d executed on backends, %d cache hits); max backlog %d; max lateness %.2f ms",
		len(recs), phase.Seconds(), executed, hits, maxBacklog, ms(late))

	rm := rep.metrics
	if !p.traced {
		rm["job_ms_p50"] = median(jobMS)
		rep.setTail("job_ms_tail", jobMS, serviceTail)
		rm["solve_ms_p50"] = median(solveMS)
		rep.setTail("solve_ms_tail", solveMS, serviceTail)
		rm["gflops"] = flops / (sum(solveMS) / 1e3) / 1e9
		rm["goodput_jobs_s"] = float64(good) / phase.Seconds()
		rm["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
		rm["setup_s"] = median(setups)
		rm["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(len(recs))
		return rep, nil
	}
	path, err := log.write(outDir, "service-mix", p.seed)
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)
	var even, odd []float64
	for i, j := range recs {
		if j.err != nil {
			continue
		}
		if i%2 == 0 {
			even = append(even, j.jobMS())
		} else {
			odd = append(odd, j.jobMS())
		}
	}
	self := log.selfTimes()
	rm["core.autoplan_ms"] = median(chk.autoplanMS)
	rm["desim.sim_ms"] = median(chk.simMS)
	rm["ptg.tasks"] = tasks
	rm["server.queue_ms_p50"] = median(beQueue)
	for _, c := range []string{"real", "auto", "sim"} {
		rm["server.exec_ms_p50."+c] = median(beExec[c])
	}
	rm["server.executed"] = float64(executed)
	rm["gateway.submit_ms_p50"] = median(submitMS)
	rm["gateway.queue_ms_p50"] = median(gwQueue)
	rm["gateway.relay_ms_p50"] = median(relay)
	rm["gateway.hit_ms_p50"] = median(hitMS)
	rm["gateway.hit_share"] = float64(hits) / float64(len(recs))
	rm["bench.late_ms_max"] = ms(late)
	rm["bench.trace_overhead"] = median(even)/median(odd) - 1
	rm["bench.unattributed_ms"] = median(log.unattributed(self))
	rm["bench.geometry_reuse_share"] = float64(reuse) / float64(execs)
	rm["bench.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}

// jobSpans records a job's path as spans under one root running from the
// job's due time to the gateway's finish, using the timestamps the gateway
// and the daemon put in their job views. A job that did not finish keeps
// only its submit span.
func jobSpans(log *spanLog, op int, j *jobRec) {
	submitted := j.sent.Add(j.rtt)
	if j.root == 0 {
		j.root = log.reserve()
		log.add(op, j.root, 0, "gateway.submit", j.sent, submitted)
	}
	root := j.root
	add := func(name string, s, e time.Time) { log.add(op, root, 0, name, s, e) }
	add("bench.late", j.due, j.sent)
	if j.err != nil {
		log.finish(root, op, 0, 0, "job", j.due, submitted)
		return
	}
	gv, bv := j.view, j.res.View
	if j.executedOnBackend() {
		add("gateway.queue", gv.SubmittedAt, *gv.StartedAt)
		add("gateway.dispatch", *gv.StartedAt, bv.SubmittedAt)
		add("server.queue", bv.SubmittedAt, *bv.StartedAt)
		add("server.exec", *bv.StartedAt, *bv.FinishedAt)
		add("gateway.relay", *bv.FinishedAt, *gv.FinishedAt)
	} else {
		add("gateway.hit", gv.SubmittedAt, *gv.FinishedAt)
	}
	log.finish(root, op, 0, 0, "job", j.due, *gv.FinishedAt)
}

// jobChecks carries what checking the outputs measured on the way: the
// direct AutoPlan and Sim timings of the auto and sim jobs.
type jobChecks struct {
	autoplanMS []float64
	simMS      []float64
}

// checkJobs verifies every finished job: real grids against a direct
// castencil.Run of the same spec (after castencil.AutoPlan for plan=auto),
// sim results against a direct castencil.Sim. A mismatch sets the job's
// error. Identical specs are computed once.
func checkJobs(jobs []*jobRec) jobChecks {
	type want struct {
		sha      string
		makespan float64
		messages int
		planMS   float64
		simMS    float64
		err      error
	}
	uniq := map[string]*want{}
	var keys []string
	var specs []server.Spec
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		k := j.plan.spec.Fingerprint()
		if _, ok := uniq[k]; !ok {
			uniq[k] = &want{}
			keys = append(keys, k)
			specs = append(specs, j.plan.spec)
		}
	}
	parallelFor(len(keys), func(i int) {
		w := uniq[keys[i]]
		s := specs[i]
		variant, cfg := specConfig(s)
		if s.Engine == "sim" {
			t0 := time.Now()
			res, err := castencil.Sim(variant, cfg, castencil.WithMachine(castencil.NaCL()))
			w.simMS, w.err = ms(time.Since(t0)), err
			if err == nil {
				w.makespan, w.messages = float64(res.Makespan)/float64(time.Millisecond), res.Messages
			}
			return
		}
		if s.Plan == "auto" {
			t0 := time.Now()
			plan, err := castencil.AutoPlan(cfg, castencil.NaCL(), 1, nil)
			w.planMS = ms(time.Since(t0))
			if err != nil {
				w.err = err
				return
			}
			switch {
			case plan.UseCA():
				variant, cfg.StepSize = castencil.CA, plan.BestStepSize
			case plan.UseWavefront():
				variant, cfg.Wavefront = castencil.WF, plan.BestWidth
			default:
				variant = castencil.Base
			}
		}
		res, err := castencil.Run(variant, cfg)
		if err != nil {
			w.err = err
			return
		}
		w.sha = gridDigest(res.Grid)
	})
	var out jobChecks
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		w := uniq[j.plan.spec.Fingerprint()]
		switch {
		case w.err != nil:
			j.err = fmt.Errorf("job %s: reference computation failed: %w", j.id, w.err)
		case j.plan.spec.Engine == "sim":
			if j.res.MakespanMS != w.makespan || j.res.Messages != w.messages {
				j.err = fmt.Errorf("job %s: sim makespan %v ms / %d messages, direct Sim %v ms / %d",
					j.id, j.res.MakespanMS, j.res.Messages, w.makespan, w.messages)
			}
		case j.res.GridSHA256 != w.sha:
			j.err = fmt.Errorf("job %s: grid_sha256 %s, direct Run %s", j.id, j.res.GridSHA256, w.sha)
		}
	}
	for _, k := range keys {
		w := uniq[k]
		if w.planMS > 0 {
			out.autoplanMS = append(out.autoplanMS, w.planMS)
		}
		if w.simMS > 0 {
			out.simMS = append(out.simMS, w.simMS)
		}
	}
	return out
}

// specConfig maps a job spec onto the library call stencild makes for it.
func specConfig(s server.Spec) (castencil.Variant, castencil.Config) {
	variant := castencil.CA
	switch s.Variant {
	case "base":
		variant = castencil.Base
	case "wf":
		variant = castencil.WF
	}
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 1
	}
	p := 1
	for p*p < nodes {
		p++
	}
	cfg := castencil.Config{N: s.N, TileRows: s.Tile, P: p, Steps: s.Steps, StepSize: s.StepSize, Wavefront: s.Wavefront}
	if s.Seed != 0 {
		cfg.Init = castencil.HashInit(s.Seed)
	}
	return variant, cfg
}
