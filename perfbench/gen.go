package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"castencil/internal/server"
)

// The service-mix stream. On two CPUs at the seed commit the fleet kept up
// with this mix to about 160 jobs/s; 38 jobs/s keeps it near a quarter of
// that, so latency reflects the path, not a queue (at half of capacity the
// run-to-run spread of the solve and tail metrics doubled on that host), and
// a 25 s run stays under the thousand jobs a p99 tail would need.
const (
	serviceRate = 38.0 // offered jobs per second
	hotSetSize  = 6
)

// Job classes of the mix; classShares gives the share of arrivals of each.
const (
	classHot   = "hot"   // repeats of a small hot set: cache reads
	classFresh = "fresh" // new real base/CA/WF jobs: cache fills
	classAuto  = "auto"  // plan=auto: AutoPlan, then a real run
	classSim   = "sim"   // engine=sim: the discrete-event simulator
)

var classShares = []struct {
	class string
	share float64
}{
	{classHot, 0.40},
	{classFresh, 0.45},
	{classAuto, 0.10},
	{classSim, 0.05},
}

// plannedJob is one arrival of the open-loop stream.
type plannedJob struct {
	at    time.Duration // due time, from the start of the measured phase
	class string
	spec  server.Spec
}

// serviceSchedule draws the whole arrival stream for a run of length dur,
// and the hot set its repeats come from: a fixed number of jobs (rate x dur)
// at Poisson arrival times — uniform order statistics over the run. The
// class counts are exact and the fresh, auto and sim geometries come from
// fixed designs (see design), so every seed offers the same work; the seed
// orders it, picks the hot set, and draws every initial condition and
// arrival time.
func serviceSchedule(rng *rand.Rand, dur time.Duration) ([]plannedJob, []server.Spec) {
	hot := withSeeds(rng, drawGeometries(rng, hotSetSize, realRanges))
	n := int(serviceRate*dur.Seconds() + 0.5)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var classes []string
	count := map[string]int{}
	for i, c := range classShares {
		k := int(c.share*float64(n) + 0.5)
		if i == len(classShares)-1 {
			k = n - len(classes)
		}
		count[c.class] = k
		for j := 0; j < k; j++ {
			classes = append(classes, c.class)
		}
	}
	shuffle(rng, classes)
	fresh := withSeeds(rng, design(count[classFresh], realRanges, 1))
	auto := withSeeds(rng, design(count[classAuto], realRanges, 2))
	sims := withSeeds(rng, design(count[classSim], simRanges, 3))
	out := make([]plannedJob, n)
	for i, class := range classes {
		var spec server.Spec
		switch class {
		case classHot:
			spec = hot[rng.IntN(len(hot))]
		case classFresh:
			spec, fresh = fresh[0], fresh[1:]
		case classAuto:
			spec, auto = auto[0], auto[1:]
			spec.Plan, spec.Variant, spec.StepSize, spec.Wavefront = "auto", "", 0, 0
		case classSim:
			spec, sims = sims[0], sims[1:]
			spec.Engine = "sim"
		}
		out[i] = plannedJob{at: at[i], class: class, spec: spec}
	}
	return out, hot
}

// design returns the k geometries one class runs, the same for every run
// seed: the seed would otherwise also decide how big the jobs are, and with
// it the medians the benchmark reports.
func design(k int, r ranges, class uint64) []server.Spec {
	return drawGeometries(rand.New(rand.NewPCG(class, uint64(k))), k, r)
}

// withSeeds shuffles specs and gives each a fresh initial condition.
func withSeeds(rng *rand.Rand, specs []server.Spec) []server.Spec {
	shuffle(rng, specs)
	for i := range specs {
		specs[i].Seed = gridSeed(rng)
	}
	return specs
}

// ranges are the values each geometry parameter takes. Grid edges are
// multiples of 8, so every tile edge, ragged ones included, is at least
// the deepest halo (8).
type ranges struct {
	variants []string
	n, tile  []int
	nodes    []int
	steps    []int
	depth    []int // CA step size or WF width
}

func steps(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// realRanges keep real jobs small enough that the fleet's job tables —
// which hold every finished grid — stay a few hundred MB over a run.
var realRanges = ranges{
	variants: []string{"base", "ca", "wf"},
	n:        steps(48, 128, 8),
	tile:     []int{16, 24, 32},
	nodes:    []int{1, 4},
	steps:    steps(16, 48, 1),
	depth:    steps(2, 8, 1),
}

// simRanges take larger grids, as the simulator computes nothing and keeps
// no grid, but only so large that a sim job costs about what a real one
// does: larger sims set the latency tail by themselves and make it noisy.
var simRanges = ranges{
	variants: []string{"base", "ca", "wf"},
	n:        steps(256, 512, 32),
	tile:     []int{32, 64},
	nodes:    []int{1, 4, 16},
	steps:    steps(10, 30, 1),
	depth:    steps(2, 8, 1),
}

// drawGeometries returns k specs whose parameters each cycle through their
// range, independently shuffled, so two specs rarely share a geometry.
func drawGeometries(rng *rand.Rand, k int, r ranges) []server.Spec {
	variant := balanced(rng, k, r.variants)
	n := balanced(rng, k, r.n)
	tile := balanced(rng, k, r.tile)
	nodes := balanced(rng, k, r.nodes)
	steps := balanced(rng, k, r.steps)
	depth := balanced(rng, k, r.depth)
	out := make([]server.Spec, k)
	for i := range out {
		s := server.Spec{Variant: variant[i], N: n[i], Tile: tile[i], Nodes: nodes[i], Steps: steps[i]}
		switch s.Variant {
		case "ca":
			s.StepSize = depth[i]
		case "wf":
			s.Wavefront = depth[i]
		}
		out[i] = s
	}
	return out
}

// balanced repeats vals to length k, starting at a random offset, and
// shuffles the result.
func balanced[T any](rng *rand.Rand, k int, vals []T) []T {
	out := make([]T, k)
	off := rng.IntN(len(vals))
	for i := range out {
		out[i] = vals[(off+i)%len(vals)]
	}
	shuffle(rng, out)
	return out
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// geometry is a spec's execution shape with the initial condition left
// out: two executions of one geometry run the same task graph.
func geometry(s server.Spec) string {
	return fmt.Sprintf("%s/%s/%s/n%d/t%d/p%d/s%d/ss%d/w%d",
		s.Engine, s.Variant, s.Plan, s.N, s.Tile, s.Nodes, s.Steps, s.StepSize, s.Wavefront)
}
