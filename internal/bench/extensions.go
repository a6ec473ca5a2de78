package bench

import (
	"fmt"
	"time"

	"castencil/internal/core"
	"castencil/internal/machine"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// ScaleBandwidth returns a copy of a machine model with its memory
// bandwidth (node and core STREAM, and proportionally the kernel's ability
// to consume it) multiplied by f, keeping the network unchanged — the
// section-VII projection: "memory bandwidth is expected to have around 50%
// improvement, but the improvement of network latency will remain modest".
func ScaleBandwidth(m *machine.Model, f float64) *machine.Model {
	s := *m
	s.Name = fmt.Sprintf("%s(bw x%.1f)", m.Name, f)
	s.StreamCore.Copy *= f
	s.StreamCore.Scale *= f
	s.StreamCore.Add *= f
	s.StreamCore.Triad *= f
	s.StreamNode.Copy *= f
	s.StreamNode.Scale *= f
	s.StreamNode.Add *= f
	s.StreamNode.Triad *= f
	return &s
}

// Future regenerates the paper's section-VII forecast as an experiment:
// with faster memory and a stagnant network, the *real* kernel (ratio 1)
// becomes network-bound and the CA variant wins without any tuning knob.
func Future(p Params) (*Report, error) {
	r := &Report{
		ID:    "future",
		Title: "Exascale projection (section VII): faster memory, same network",
		Paper: "§VII: ~50% memory-bandwidth improvement, modest network gains => workloads become network-bound and CA shows a distinct advantage",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d, real kernel (ratio 1), CA step %d", w.Machine.Name, w.N, w.Tile, p.StepSize),
			Columns: []string{"Memory BW", "Nodes", "Base GF", "CA GF", "CA gain"},
		}
		for _, f := range []float64{1, 1.5, 3, 6} {
			m := ScaleBandwidth(w.Machine, f)
			for _, nodes := range p.Nodes {
				pg, err := squareGrid(nodes)
				if err != nil {
					return nil, err
				}
				cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: m})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: m})
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("x%.1f", f), itoa(nodes), f1(rb.GFLOPS), f1(rc.GFLOPS), pct(rc.GFLOPS/rb.GFLOPS))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes,
		"bandwidth scaling multiplies STREAM while the network (latency, per-message overhead, wire rate) stays fixed")
	return r, nil
}

// NinePoint is the other section-VII mitigation: raising arithmetic
// intensity. It compares the 5-point and 9-point stencils at the real
// kernel on the same machines.
func NinePoint(p Params) (*Report, error) {
	r := &Report{
		ID:    "ninepoint",
		Title: "Arithmetic-intensity ablation: 5-point vs 9-point stencil (section VII)",
		Paper: "§VII: increasing the arithmetic intensity of the algorithms ... could also provide effective ways to mitigate the network inefficiencies",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d", w.Machine.Name, w.N, w.Tile),
			Columns: []string{"Nodes", "Stencil", "Base GF", "CA GF", "CA gain"},
		}
		for _, nodes := range p.Nodes {
			pg, err := squareGrid(nodes)
			if err != nil {
				return nil, err
			}
			for _, nine := range []bool{false, true} {
				cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize, NinePoint: nine}
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
				if err != nil {
					return nil, err
				}
				name := "5-point"
				if nine {
					name = "9-point"
				}
				t.AddRow(itoa(nodes), name, f1(rb.GFLOPS), f1(rc.GFLOPS), pct(rc.GFLOPS/rb.GFLOPS))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// AutoPlanReport exercises the automatic kernel-family planner (the paper's
// future-work item) across kernel ratios: each parameter candidate is probed
// both as a CA step size and as a wavefront width.
func AutoPlanReport(p Params) (*Report, error) {
	r := &Report{
		ID:    "autoplan",
		Title: "Automatic kernel-family planning (section VII future work)",
		Paper: "§VII: make the generation and scheduling of the redundant tasks transparent to the users",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d", w.Machine.Name, w.N, w.Tile),
			Columns: []string{"Nodes", "Ratio", "Plan", "Plan GF", "Base GF", "gain"},
		}
		for _, nodes := range p.Nodes {
			pg, err := squareGrid(nodes)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps}
			for _, ratio := range append([]float64{1}, p.Ratios...) {
				plan, err := core.AutoPlan(cfg, w.Machine, ratio, p.StepSizes)
				if err != nil {
					return nil, err
				}
				var base float64
				for _, c := range plan.Candidates {
					if c.Family == core.Base {
						base = c.GFLOPS
					}
				}
				t.AddRow(itoa(nodes), f1(ratio), plan.Candidates[0].String(), f1(plan.BestGFLOPS), f1(base), pct(plan.BestGFLOPS/base))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Schedulers compares scheduling policies on both engines: the virtual-time
// engine (FIFO vs priority list scheduling) and the real runtime
// (FIFO/LIFO/priority wall-clock on a small problem).
func Schedulers(p Params) (*Report, error) {
	r := &Report{
		ID:    "sched",
		Title: "Scheduler ablation (PaRSEC-style pluggable schedulers)",
	}
	if len(p.Workloads) == 0 || len(p.Nodes) == 0 {
		return r, nil
	}
	w := p.Workloads[0]
	pg, err := squareGrid(p.Nodes[0])
	if err != nil {
		return nil, err
	}
	cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
	t := Table{
		Title:   fmt.Sprintf("virtual time: %s, %d nodes, ratio 0.3", w.Machine.Name, pg*pg),
		Columns: []string{"Variant", "Priority GF", "FIFO GF", "priority gain"},
	}
	for _, v := range []core.Variant{core.Base, core.CA} {
		prio, err := core.Simulate(v, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
		if err != nil {
			return nil, err
		}
		fifo, err := core.Simulate(v, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3, FIFO: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(v.String(), f1(prio.GFLOPS), f1(fifo.GFLOPS), pct(prio.GFLOPS/fifo.GFLOPS))
	}
	r.Tables = append(r.Tables, t)

	// Real runtime: wall-clock of a small problem under each order of the
	// shared per-node ready queue.
	rt := Table{
		Title:   "real runtime: N=480 tile=48, 4 nodes x 4 workers, CA s=6",
		Columns: []string{"Scheduler", "Elapsed", "Messages", "Parks"},
	}
	small := core.Config{N: 480, TileRows: 48, P: 2, Steps: 30, StepSize: 6}
	pols := []runtime.Policy{runtime.FIFO, runtime.LIFO, runtime.PriorityOrder}
	if p.Sched != "" {
		pol, err := runtime.ParseSched(p.Sched)
		if err != nil {
			return nil, err
		}
		pols = []runtime.Policy{pol}
	}
	for _, pol := range pols {
		res, err := core.RunReal(core.CA, small, runtime.Options{Workers: 4, Policy: pol})
		if err != nil {
			return nil, err
		}
		parks := 0
		for _, n := range res.Exec.NodeParks {
			parks += n
		}
		rt.AddRow(pol.String(), res.Exec.Elapsed.Round(time.Millisecond).String(), itoa(res.Exec.Messages), itoa(parks))
	}
	r.Tables = append(r.Tables, rt)
	r.Notes = append(r.Notes, "real-runtime wall clock is host-dependent; it demonstrates scheduler plumbing, not cluster performance")
	r.Notes = append(r.Notes, "Parks counts idle waits of the workers on their node's queue")
	return r, nil
}

// Coalesce is the halo-coalescing ablation: the same problems with
// point-to-point delivery versus per-neighbor bundle aggregation, on both
// engines. The virtual-time table shows the message-count collapse and its
// makespan effect on the paper's machines; the real-runtime table shows the
// wall-clock effect on a communication-bound shape (many small tiles, so
// per-message overhead dominates).
func Coalesce(p Params) (*Report, error) {
	r := &Report{
		ID:    "coalesce",
		Title: "Halo coalescing ablation: per-neighbor bundles vs point-to-point",
		Paper: "§IV-B: PaRSEC's communication engine aggregates the halo propagation toward one successor node; bundling amortizes the per-message overhead the CA scheme leaves behind",
	}
	modes := []struct {
		name string
		mode ptg.CoalesceMode
	}{{"off", ptg.CoalesceOff}, {"step", ptg.CoalesceStep}}
	wantMode := func(name string) bool { return p.Coalesce == "" || p.Coalesce == name }
	if len(p.Workloads) == 0 || len(p.Nodes) == 0 {
		return r, nil
	}
	w := p.Workloads[0]
	pg, err := squareGrid(p.Nodes[0])
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:   fmt.Sprintf("virtual time: %s, N=%d tile=%d, %d nodes, ratio 0.3", w.Machine.Name, w.N, w.Tile, pg*pg),
		Columns: []string{"Variant", "Coalesce", "Msgs", "Bundle fill", "GFLOP/s", "gain"},
	}
	for _, v := range []core.Variant{core.Base, core.CA} {
		cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
		var off float64
		for _, m := range modes {
			if !wantMode(m.name) {
				continue
			}
			res, err := core.Simulate(v, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3, Coalesce: m.mode})
			if err != nil {
				return nil, err
			}
			if m.mode == ptg.CoalesceOff {
				off = res.GFLOPS
			}
			gain := "-"
			if m.mode != ptg.CoalesceOff && off > 0 {
				gain = pct(res.GFLOPS / off)
			}
			t.AddRow(v.String(), m.name, itoa(res.Messages), f1(res.BundleFill()), f1(res.GFLOPS), gain)
		}
	}
	r.Tables = append(r.Tables, t)

	// Real runtime: a communication-bound shape — tiles small enough that
	// per-message handling, not the kernel, dominates.
	rt := Table{
		Title:   "real runtime: N=256 tile=8, 4 nodes x 2 workers, CA s=4",
		Columns: []string{"Variant", "Coalesce", "Elapsed", "Msgs", "Bundle fill"},
	}
	small := core.Config{N: 256, TileRows: 8, P: 2, Steps: 20, StepSize: 4}
	for _, v := range []core.Variant{core.Base, core.CA} {
		for _, m := range modes {
			if !wantMode(m.name) {
				continue
			}
			res, err := core.RunReal(v, small, runtime.Options{Workers: 2, Coalesce: m.mode})
			if err != nil {
				return nil, err
			}
			rt.AddRow(v.String(), m.name, res.Exec.Elapsed.Round(time.Millisecond).String(),
				itoa(res.Exec.Messages), f1(res.Exec.BundleFill()))
		}
	}
	r.Tables = append(r.Tables, rt)
	r.Notes = append(r.Notes, "coalescing is bitwise-invisible: grids are identical across modes (see the determinism suite)")
	r.Notes = append(r.Notes, "real-runtime wall clock is host-dependent; the message-count collapse is the portable signal")
	return r, nil
}

// WeakScaling complements the paper's strong-scaling study (Fig. 7) with a
// weak-scaling one: per-node work is held constant while the node count
// grows, so the per-node message count stays fixed and the base version's
// communication remains hidden much longer — the regime where the paper's
// "increasing workload on each node" mitigation (section VII) applies.
func WeakScaling(p Params) (*Report, error) {
	r := &Report{
		ID:    "weak",
		Title: "Weak scaling (constant per-node work; extension)",
		Paper: "§VII: 'increasing workload on each node could also provide effective ways to mitigate the network inefficiencies'",
	}
	for _, w := range p.Workloads {
		perNode := w.N
		for _, n := range p.Nodes { // shrink so the largest run matches w.N
			pg, _ := squareGrid(n)
			if pg > 0 && w.N/pg < perNode {
				perNode = w.N / pg
			}
		}
		t := Table{
			Title:   fmt.Sprintf("%s, %d x %d points per node, tile=%d, ratio 0.3", w.Machine.Name, perNode, perNode, w.Tile),
			Columns: []string{"Nodes", "N", "Base GF", "CA GF", "Base eff", "CA eff"},
		}
		var base1, ca1 float64
		for _, nodes := range append([]int{1}, p.Nodes...) {
			pg, err := squareGrid(nodes)
			if err != nil {
				return nil, err
			}
			n := perNode * pg
			cfg := core.Config{N: n, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
			rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
			if err != nil {
				return nil, err
			}
			rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
			if err != nil {
				return nil, err
			}
			if nodes == 1 {
				base1, ca1 = rb.GFLOPS, rc.GFLOPS
			}
			t.AddRow(itoa(nodes), itoa(n), f1(rb.GFLOPS), f1(rc.GFLOPS),
				f2(rb.GFLOPS/(float64(nodes)*base1)), f2(rc.GFLOPS/(float64(nodes)*ca1)))
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}
