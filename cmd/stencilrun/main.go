// Command stencilrun executes or simulates one stencil configuration.
//
// Usage:
//
//	stencilrun -impl ca -machine NaCL -nodes 16 -n 23040 -tile 288 -steps 100 -stepsize 15
//	stencilrun -impl base -engine real -n 240 -tile 24 -nodes 4 -workers 4 -verify
//	stencilrun -impl base -engine real -n 240 -tile 24 -nodes 4 -fault drop=0.02,seed=7 -verify
//	stencilrun -impl petsc -machine Stampede2 -nodes 16 -n 55296
//	stencilrun -impl ca -machine NaCL -nodes 16 -ratio 0.4 -trace trace.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	castencil "castencil"
	"castencil/internal/cli"
	"castencil/internal/core"
	"castencil/internal/petsc"
	"castencil/internal/ptg"
)

// fail reports err and exits. A run that failed because a transfer could
// not be acknowledged within the recovery deadline also surfaces its
// structured degradation report.
func fail(err error) {
	var rep *castencil.FaultReport
	if errors.As(err, &rep) {
		fmt.Fprintf(os.Stderr, "stencilrun: degraded: %v\n", rep.Stats)
	}
	fmt.Fprintln(os.Stderr, "stencilrun:", err)
	os.Exit(1)
}

func main() {
	impl := flag.String("impl", "ca", "implementation: base, ca, wf, petsc")
	machineFlag := cli.MachineVar(flag.CommandLine, "NaCL")
	engine := flag.String("engine", "sim", "engine: sim (virtual time) or real (actual execution)")
	n := flag.Int("n", 23040, "global grid extent (N x N)")
	tile := flag.Int("tile", 288, "tile size")
	nodes := flag.Int("nodes", 16, "node count (perfect square)")
	steps := flag.Int("steps", 100, "iterations")
	stepSize := flag.Int("stepsize", 15, "CA step size")
	wavefrontFlag := cli.WavefrontVar(flag.CommandLine, 10)
	ratio := flag.Float64("ratio", 1, "kernel adjustment ratio (sim only)")
	workers := flag.Int("workers", 2, "workers per node (real engine)")
	schedFlag := cli.SchedVar(flag.CommandLine, "fifo")
	coalesceFlag := cli.CoalesceVar(flag.CommandLine, "off")
	transformFlag := cli.TransformVar(flag.CommandLine, "none")
	faultFlag := cli.FaultVar(flag.CommandLine)
	stealFlag := cli.StealVar(flag.CommandLine, "")
	rankFlag := cli.RankVar(flag.CommandLine)
	ranksFlag := cli.RanksVar(flag.CommandLine)
	verify := flag.Bool("verify", false, "real engine: compare against the sequential oracle")
	traceOut := flag.String("trace", "", "write a CSV trace to this file (sim: node 0; real: all nodes)")
	planMode := flag.Bool("plan", false, "run the automatic step-size planner instead of a single config")
	autoPlan := flag.Bool("autoplan", false, "plan first, then execute the recommended configuration (overrides -impl/-stepsize)")
	dotOut := flag.String("dot", "", "write the task graph in Graphviz DOT format to this file and exit (small configs only)")
	flag.Parse()

	rank, rankAddrs, distributed, err := cli.ResolveRanks(rankFlag, ranksFlag)
	if err != nil {
		fail(err)
	}
	if distributed && *engine != "real" {
		fail(fmt.Errorf("-ranks needs -engine real (the simulator is single-process)"))
	}
	if stealFlag.Mode != castencil.StealOff && !distributed {
		fail(fmt.Errorf("-steal %s needs -ranks (inter-node stealing is a distributed-run feature)", stealFlag.Name))
	}

	p := 1
	for p*p < *nodes {
		p++
	}
	if p*p != *nodes {
		fail(fmt.Errorf("nodes = %d is not a perfect square", *nodes))
	}
	m := machineFlag.Model
	cfg := castencil.Config{N: *n, TileRows: *tile, P: p, Steps: *steps, StepSize: *stepSize, Wavefront: wavefrontFlag.N, Transform: transformFlag.Mode}

	if *dotOut != "" {
		variant := castencil.Base
		switch *impl {
		case "ca":
			variant = castencil.CA
		case "wf":
			variant = castencil.WF
		}
		g, err := core.BuildGraph(variant, cfg)
		if err != nil {
			fail(err)
		}
		if len(g.Tasks) > 2000 {
			fail(fmt.Errorf("graph has %d tasks; DOT export is for small configs (<= 2000)", len(g.Tasks)))
		}
		f, err := os.Create(*dotOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := g.WriteDOT(f, fmt.Sprintf("%s N=%d", *impl, *n)); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d tasks)\n", *dotOut, len(g.Tasks))
		return
	}

	if *planMode {
		plan, err := castencil.AutoPlan(cfg, m, *ratio, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("plan for %s, %d nodes, N=%d tile=%d ratio=%.2f:\n", m.Name, *nodes, *n, *tile, *ratio)
		for i, c := range plan.Candidates {
			marker := ""
			if i == 0 {
				marker = "  <- recommended"
			}
			fmt.Printf("  %-9s %10.1f GFLOP/s%s\n", c, c.GFLOPS, marker)
		}
		return
	}

	if *autoPlan {
		plan, err := castencil.AutoPlan(cfg, m, *ratio, nil)
		if err != nil {
			fail(err)
		}
		switch {
		case plan.UseCA():
			*impl = "ca"
			cfg.StepSize = plan.BestStepSize
			fmt.Printf("autoplan: CA s=%d (%.1f GFLOP/s predicted on %s)\n", plan.BestStepSize, plan.BestGFLOPS, m.Name)
		case plan.UseWavefront():
			*impl = "wf"
			cfg.Wavefront = plan.BestWidth
			fmt.Printf("autoplan: WF w=%d (%.1f GFLOP/s predicted on %s)\n", plan.BestWidth, plan.BestGFLOPS, m.Name)
		default:
			*impl = "base"
			fmt.Printf("autoplan: base (%.1f GFLOP/s predicted on %s)\n", plan.BestGFLOPS, m.Name)
		}
	}

	if *impl == "petsc" {
		perf, err := petsc.ModelPerf(m, *n, *nodes, *steps)
		if err != nil {
			fail(err)
		}
		fmt.Printf("petsc on %s, %d nodes (%d ranks): %.1f GFLOP/s, iter %v (kernel %v, comm %v)\n",
			m.Name, *nodes, perf.Ranks, perf.GFLOPS, perf.IterTime, perf.KernelTime, perf.CommTime)
		return
	}

	var variant castencil.Variant
	switch *impl {
	case "base":
		variant = castencil.Base
	case "ca":
		variant = castencil.CA
	case "wf":
		variant = castencil.WF
	default:
		fail(fmt.Errorf("unknown impl %q", *impl))
	}

	// printCounters reports the coalescing, fault and split accounting the
	// two engines share.
	printCounters := func(c ptg.Counters, overlap float64) {
		if c.Bundles > 0 {
			fmt.Printf("  coalescing (%s): %d bundles carrying %d transfers, fill %.1f\n",
				coalesceFlag.Mode, c.Bundles, c.Segments, c.BundleFill())
		}
		if c.Fault.Any() {
			fmt.Printf("  fault plan %q masked: %v\n", faultFlag.Spec, c.Fault)
		}
		if c.InteriorTasks > 0 {
			fmt.Printf("  split: %d interior + %d border tasks, overlap ratio %.2f\n",
				c.InteriorTasks, c.BorderTasks, overlap)
		}
	}
	switch *engine {
	case "sim":
		opts := []castencil.Option{
			castencil.WithMachine(m),
			castencil.WithRatio(*ratio),
			castencil.WithCoalesce(coalesceFlag.Mode),
			castencil.WithFaultPlan(faultFlag.Plan),
		}
		var tr *castencil.Trace
		if *traceOut != "" {
			tr = castencil.NewTrace()
			opts = append(opts, castencil.WithTrace(tr), castencil.WithTraceNode(0))
		}
		res, err := castencil.Sim(variant, cfg, opts...)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s on %s, %d nodes, N=%d tile=%d steps=%d", variant, m.Name, *nodes, *n, *tile, *steps)
		if variant == castencil.CA {
			fmt.Printf(" s=%d", cfg.StepSize)
		}
		if variant == castencil.WF {
			fmt.Printf(" w=%d", cfg.Wavefront)
		}
		if *ratio != 1 {
			fmt.Printf(" ratio=%.2f", *ratio)
		}
		fmt.Printf("\n  %.1f GFLOP/s, makespan %v, %d messages, %.1f MB sent\n",
			res.GFLOPS, res.Makespan, res.Messages, float64(res.BytesSent)/1e6)
		printCounters(res.Counters, res.OverlapRatio)
		if tr != nil {
			writeTrace(tr, *traceOut, "trace of node 0")
		}
	case "real":
		opts := []castencil.Option{
			castencil.WithWorkers(*workers),
			castencil.WithPolicy(schedFlag.Policy),
			castencil.WithCoalesce(coalesceFlag.Mode),
			castencil.WithFaultPlan(faultFlag.Plan),
		}
		if distributed {
			opts = append(opts, castencil.WithCluster(castencil.ClusterOptions{
				Rank:  rank,
				Ranks: rankAddrs,
				Steal: castencil.StealPolicy{Mode: stealFlag.Mode, Machine: m},
			}))
		}
		var tr *castencil.Trace
		if *traceOut != "" {
			tr = castencil.NewTrace()
			opts = append(opts, castencil.WithTrace(tr), castencil.WithTraceComm())
		}
		res, err := castencil.Run(variant, cfg, opts...)
		if err != nil {
			fail(err)
		}
		if distributed && rank != 0 {
			// Followers hold no grid and only their local counter slice;
			// rank 0 prints the run's global view.
			fmt.Printf("%s rank %d/%d done: elapsed %v, local %d messages, %.1f MB sent\n",
				variant, rank, len(rankAddrs), res.Exec.Elapsed, res.Exec.Messages, float64(res.Exec.BytesSent)/1e6)
			if tr != nil {
				writeTrace(tr, *traceOut, "trace")
			}
			return
		}
		fmt.Printf("%s real run (%s): %d nodes x %d workers, elapsed %v, %d messages, %.1f MB sent\n",
			variant, schedFlag.Policy, *nodes, *workers, res.Exec.Elapsed, res.Exec.Messages, float64(res.Exec.BytesSent)/1e6)
		if distributed {
			fmt.Printf("  distributed: %d ranks, grid sha256 %s\n", len(rankAddrs), castencil.GridSHA256(res.Grid))
			if stealFlag.Mode != castencil.StealOff || res.Exec.MigratedTasks > 0 {
				fmt.Printf("  steal (%s): %d tasks migrated, %.1f KB migration traffic, %d remote steals\n",
					stealFlag.Mode, res.Exec.MigratedTasks, float64(res.Exec.MigratedBytes)/1e3, res.Exec.StealsRemote)
			}
		}
		printCounters(res.Exec.Counters, res.Exec.OverlapRatio)
		if tr != nil {
			writeTrace(tr, *traceOut, "trace")
		}
		if *verify {
			if d := castencil.Verify(cfg, res); d == 0 {
				fmt.Println("  verified: bitwise identical to the sequential oracle")
			} else {
				fail(fmt.Errorf("verification failed: max diff %v", d))
			}
		}
	default:
		fail(fmt.Errorf("unknown engine %q", *engine))
	}
}

func writeTrace(tr *castencil.Trace, path, what string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		fail(err)
	}
	fmt.Printf("  %s written to %s (%d events)\n", what, path, tr.Len())
}
