package bench

import (
	"fmt"
	"time"

	"castencil/internal/core"
	"castencil/internal/fault"
	"castencil/internal/machine"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// Overlap is the communication–computation overlap ablation: the split
// graph transform rewrites each tile update into a halo-independent
// interior task plus thin border tasks, so interior compute runs while
// halos are in flight. The headline table injects a deterministic link
// delay (the comm-bound regime the transform targets: a congested or
// high-latency interconnect) and compares split vs unsplit makespans; the
// supporting tables show the trade on a clean wire and prove traffic
// parity on the real runtime.
func Overlap(p Params) (*Report, error) {
	r := &Report{
		ID:    "overlap",
		Title: "Inner/border split: communication-computation overlap",
		Paper: "extension of §VII: latency tolerance by graph transformation instead of deeper halos — hide the wire behind the tile interior rather than avoiding messages",
	}
	runNone := p.Transform == "" || p.Transform == "none" || p.Transform == "off"
	runSplit := p.Transform == "" || p.Transform == "split"

	// Delayed-link shape: few big tiles per node, so each epoch has a large
	// halo-free interior to hide the injected 4ms link delay behind. The
	// delay plan is deterministic (pure function of seed and message
	// identity) — both engines inject the byte-identical schedule.
	delayed := core.Config{N: 2880, TileRows: 720, P: 2, Steps: p.Steps}
	spec := "delay=1,delayby=4ms,seed=1"
	if p.Fault != "" {
		spec = p.Fault
	}
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return nil, err
	}
	nacl := machine.NaCL()
	dt := Table{
		Title:   fmt.Sprintf("virtual time: delayed link (%s), base, NaCL, N=%d tile=%d, 4 nodes", spec, delayed.N, delayed.TileRows),
		Columns: []string{"Transform", "Makespan", "GFLOP/s", "Msgs", "Overlap", "speedup"},
	}
	var unsplit time.Duration
	for _, split := range []bool{false, true} {
		if (split && !runSplit) || (!split && !runNone) {
			continue
		}
		cfg := delayed
		name := "none"
		if split {
			cfg.Transform = core.TransformSplit
			name = "split"
		}
		res, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: nacl, Fault: plan})
		if err != nil {
			return nil, err
		}
		speed := "-"
		if split && unsplit > 0 {
			gain := float64(unsplit) / float64(res.Makespan)
			speed = fmt.Sprintf("%.2fx", gain)
			r.Notes = append(r.Notes, fmt.Sprintf(
				"delayed-link speedup %.2fx with overlap ratio %.2f: %d interior tasks ran while halos were in flight",
				gain, res.OverlapRatio, res.InteriorTasks))
		} else if !split {
			unsplit = res.Makespan
		}
		dt.AddRow(name, res.Makespan.Round(time.Microsecond).String(), f1(res.GFLOPS),
			itoa(res.Messages), f2(res.OverlapRatio), speed)
	}
	r.Tables = append(r.Tables, dt)

	// Clean wire across the calibrated machines: the same transform with no
	// injected delay. Here the network is fast relative to the kernel, so
	// the split's per-task overhead can outweigh the little it has to hide —
	// the honest boundary of the optimization.
	if len(p.Workloads) > 0 && len(p.Nodes) > 0 {
		ct := Table{
			Title:   "virtual time, clean wire: base, big tiles (4x the workload tile)",
			Columns: []string{"Machine", "Nodes", "none GF", "split GF", "Overlap", "gain"},
		}
		for _, w := range p.Workloads {
			tile := w.Tile * 4
			if delayedN := w.N / tile; delayedN < 2 {
				tile = w.N / 2
			}
			for _, nodes := range p.Nodes {
				pg, err := squareGrid(nodes)
				if err != nil {
					return nil, err
				}
				if w.N/tile < pg {
					continue // too few tiles for this node grid
				}
				cfg := core.Config{N: w.N, TileRows: tile, P: pg, Steps: p.Steps}
				var none, split *core.SimResult
				if runNone {
					if none, err = core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine}); err != nil {
						return nil, err
					}
				}
				sc := cfg
				sc.Transform = core.TransformSplit
				if runSplit {
					if split, err = core.Simulate(core.Base, sc, core.SimOptions{Machine: w.Machine}); err != nil {
						return nil, err
					}
				}
				noneGF, splitGF, overlap, gain := "-", "-", "-", "-"
				if none != nil {
					noneGF = f1(none.GFLOPS)
				}
				if split != nil {
					splitGF = f1(split.GFLOPS)
					overlap = f2(split.OverlapRatio)
				}
				if none != nil && split != nil {
					gain = pct(split.GFLOPS / none.GFLOPS)
				}
				ct.AddRow(w.Machine.Name, itoa(nodes), noneGF, splitGF, overlap, gain)
			}
		}
		r.Tables = append(r.Tables, ct)
	}

	// Real runtime: traffic parity and the measured wire-level overlap. The
	// commit task keeps the original producer identity, so message, byte and
	// bundle counts must match the unsplit run exactly.
	if runNone && runSplit {
		rt := Table{
			Title:   "real runtime: base, N=256 tile=64, 4 nodes x 2 workers",
			Columns: []string{"Transform", "Coalesce", "Elapsed", "Msgs", "Bundles", "Interior", "Border", "Overlap"},
		}
		small := core.Config{N: 256, TileRows: 64, P: 2, Steps: 20}
		for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
			var msgs, bundles int
			for _, split := range []bool{false, true} {
				cfg := small
				name := "none"
				if split {
					cfg.Transform = core.TransformSplit
					name = "split"
				}
				res, err := core.RunReal(core.Base, cfg, runtime.Options{
					Workers: 2, Coalesce: coal,
				})
				if err != nil {
					return nil, err
				}
				if !split {
					msgs, bundles = res.Exec.Messages, res.Exec.Bundles
				} else if res.Exec.Messages != msgs || res.Exec.Bundles != bundles {
					r.Notes = append(r.Notes, fmt.Sprintf(
						"TRAFFIC PARITY VIOLATED (coalesce=%v): split sent %d msgs/%d bundles, unsplit %d/%d",
						coal, res.Exec.Messages, res.Exec.Bundles, msgs, bundles))
				}
				rt.AddRow(name, coal.String(), res.Exec.Elapsed.Round(time.Millisecond).String(),
					itoa(res.Exec.Messages), itoa(res.Exec.Bundles),
					itoa(res.Exec.InteriorTasks), itoa(res.Exec.BorderTasks), f2(res.Exec.OverlapRatio))
			}
		}
		r.Tables = append(r.Tables, rt)
	}

	r.Notes = append(r.Notes,
		"split never changes numerics or traffic: same messages, bytes and bundle plan, bitwise-identical grids (TestSplitDeterminism)",
		"the transform pays one task overhead per border strip; it wins when wire latency exceeds that overhead and loses on a fast clean wire",
		"overlap ratio = |comm in flight ∩ interior executing| / |comm in flight|, measured on the wire by both engines")
	return r, nil
}
