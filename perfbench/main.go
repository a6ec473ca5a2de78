// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produced, and prints as
// its last line a JSON object with every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name and unit:
//
//	bash perfbench/run.sh --workload fine-grain --seed 1 --seconds 25 --trace 0
//
// The workloads, their metrics and the layer each metric belongs to are
// described in perfbench/README.md; BENCHMARK.json at the repository root
// lists the same names with their regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"syscall"
	"time"
)

// outDir holds everything a run writes (span dumps); it is ignored by git.
const outDir = ".bench_build/spans"

// setupRepeats is how many times a run sets the system under test up; the
// median is reported as setup_s, and the last set-up is the one measured.
const setupRepeats = 3

// params are a run's command-line inputs.
type params struct {
	seed   uint64
	dur    time.Duration
	traced bool
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	// invalid lists reasons the run's numbers cannot be trusted (open-loop
	// lateness, backlog growth, tail without enough samples, attribution
	// residual out of tolerance); any entry makes the run incorrect.
	invalid []string
	metrics map[string]float64
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *report) invalidf(format string, a ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, a...))
}

// setTail records a pinned tail percentile, marking the run invalid when
// the samples do not support it.
func (r *report) setTail(name string, xs []float64, p float64) {
	t, err := tailOf(xs, p)
	if err != nil {
		r.invalidf("%s: %v", name, err)
	}
	r.metrics[name] = t.Value
	line := fmt.Sprintf("%s is p%g of %d samples", name, p, t.N)
	if hi, err := tailPercentile(t.N); err == nil && hi > p {
		line += fmt.Sprintf(" (this run would support p%g)", hi)
	}
	r.notes = append(r.notes, line)
}

// workloads are the benchmark's named input sets; README.md gives the
// reason each was chosen.
var workloads = []struct {
	name string
	run  func(p params) (*report, error)
}{
	{"fine-grain", func(p params) (*report, error) { return runLibrary(fineGrain, p) }},
	{"coarse-mesh", func(p params) (*report, error) { return runLibrary(coarseMesh, p) }},
	{"service-mix", runService},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (fine-grain, coarse-mesh, service-mix)")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 25, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var runW func(params) (*report, error)
	for _, w := range workloads {
		if w.name == *name {
			runW = w.run
		}
	}
	if runW == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fine-grain, coarse-mesh, service-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	rep, err := runW(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := result(rep, p.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d attempted, %d failed\n", *name, p.seed, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, n := range rep.invalid {
		fmt.Fprintf(stdout, "  INVALID: %s\n", n)
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final line: exactly the catalog's metrics for the
// pass, each with its unit.
func result(rep *report, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   rep.failed == 0 && len(rep.invalid) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			// A layer the workload does not exercise reads zero.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range rep.metrics {
		if _, ok := line.Metrics[name]; !ok && !known(name) {
			return nil, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return json.Marshal(line)
}

// maxRSSMB is the process's peak resident set in MB (getrusage reports KiB
// on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
