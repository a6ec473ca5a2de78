// Quickstart: solve Laplace's equation with Jacobi iteration on a small 2D
// grid, three ways — the sequential baseline (implicitly, via Verify), the
// base task-graph version and the communication-avoiding version — over
// four simulated distributed-memory nodes, then predict cluster performance
// with the virtual-time engine.
package main

import (
	"fmt"
	"log"

	castencil "castencil"
)

func main() {
	cfg := castencil.Config{
		N:        240, // 240 x 240 grid
		TileRows: 24,  // 10 x 10 tiles
		P:        2,   // 2 x 2 nodes
		Steps:    50,
		StepSize: 6, // CA: exchange every 6 iterations
		Weights:  castencil.JacobiWeights(),
		Init:     castencil.HashInit(42),
		Boundary: castencil.ConstBoundary(1),
	}

	fmt.Println("== real execution (4 virtual nodes, 3 workers each) ==")
	for _, v := range []castencil.Variant{castencil.Base, castencil.CA} {
		res, err := castencil.Run(v, cfg, castencil.WithWorkers(3))
		if err != nil {
			log.Fatal(err)
		}
		diff := castencil.Verify(cfg, res)
		fmt.Printf("%-4s: elapsed %8v, %4d messages, %7.1f KB sent, max diff vs oracle = %v\n",
			v, res.Exec.Elapsed.Round(1000), res.Exec.Messages,
			float64(res.Exec.BytesSent)/1e3, diff)
	}

	// The same run over an unreliable wire: 5% of messages dropped and 5%
	// duplicated, deterministically by seed. The reliable transport
	// (sequence numbers, acks, retransmits, receiver dedup) comes on
	// automatically and masks every fault — the numerics stay bitwise
	// identical to the oracle.
	fmt.Println()
	fmt.Println("== real execution over a faulty wire (drop=5%, dup=5%) ==")
	plan, err := castencil.ParseFaultPlan("drop=0.05,dup=0.05,seed=42")
	if err != nil {
		log.Fatal(err)
	}
	res, err := castencil.Run(castencil.CA, cfg,
		castencil.WithWorkers(3),
		castencil.WithCoalesce(castencil.CoalesceStep),
		castencil.WithFaultPlan(plan))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CA  : %v, max diff vs oracle = %v\n", res.Exec.Fault, castencil.Verify(cfg, res))

	fmt.Println()
	fmt.Println("== predicted performance on the paper's clusters (virtual time) ==")
	big := castencil.Config{N: 23040, TileRows: 288, P: 4, Steps: 100, StepSize: 15}
	for _, m := range []*castencil.Machine{castencil.NaCL(), castencil.Stampede2()} {
		for _, ratio := range []float64{1.0, 0.2} {
			base, err := castencil.Sim(castencil.Base, big, castencil.WithMachine(m), castencil.WithRatio(ratio))
			if err != nil {
				log.Fatal(err)
			}
			ca, err := castencil.Sim(castencil.CA, big, castencil.WithMachine(m), castencil.WithRatio(ratio))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s 16 nodes, kernel ratio %.1f: base %7.1f GF/s, CA %7.1f GF/s (%+.0f%%)\n",
				m.Name, ratio, base.GFLOPS, ca.GFLOPS, 100*(ca.GFLOPS/base.GFLOPS-1))
		}
	}
}
