package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	castencil "castencil"
	"castencil/internal/server"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, hotA := serviceSchedule(newRNG(7, "service-mix"), 5*time.Second)
	b, hotB := serviceSchedule(newRNG(7, "service-mix"), 5*time.Second)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(hotA, hotB) {
		t.Fatal("seed 7 produced two different service schedules")
	}
	if c, _ := serviceSchedule(newRNG(8, "service-mix"), 5*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced the same service schedule")
	}
	if len(a) != int(serviceRate*5) {
		t.Fatalf("schedule has %d jobs, want %d", len(a), int(serviceRate*5))
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	r1, r2 := newRNG(7, "fine-grain"), newRNG(7, "fine-grain")
	for i := 0; i < 100; i++ {
		if s1, s2 := gridSeed(r1), gridSeed(r2); s1 != s2 || s1 == 0 {
			t.Fatalf("solve %d: seeds %d and %d", i, s1, s2)
		}
	}
}

func TestScheduleSpecsAreAdmissible(t *testing.T) {
	classes := map[string]int{}
	sched, _ := serviceSchedule(newRNG(3, "service-mix"), 20*time.Second)
	for _, j := range sched {
		classes[j.class]++
		if err := j.spec.Validate(); err != nil {
			t.Fatalf("%s job %+v rejected: %v", j.class, j.spec, err)
		}
	}
	for _, c := range classShares {
		if classes[c.class] == 0 {
			t.Errorf("no %s jobs in a 20s schedule", c.class)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want p%g", c.n, got, err, c.want)
		}
	}
	if _, err := tailPercentile(39); err == nil {
		t.Error("39 samples leave 9 beyond p75, yet a tail was chosen")
	}
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailOf(xs, 90); err == nil {
		t.Error("p90 of 60 samples has 6 beyond it, yet tailOf accepted it")
	}
	if tl, err := tailOf(xs, 75); err != nil || tl.Value != quantile(xs, 0.75) {
		t.Errorf("p75 of 60 samples: %+v, %v", tl, err)
	}
	rep := newReport()
	rep.setTail("solve_ms_tail", xs, 90)
	if len(rep.invalid) != 1 {
		t.Errorf("an unsupported tail did not invalidate the run: %v", rep.invalid)
	}
}

// TestCatalogMatchesBenchmarkJSON pins the printed metric names, their
// units and the workload names to BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], catalog has [%s] (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jnames []string
	for _, w := range bj.Workloads {
		jnames = append(jnames, w.Name)
	}
	if !reflect.DeepEqual(names, jnames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, jnames)
	}

	// The printed line carries exactly the catalog, every value with its unit.
	rep := newReport()
	rep.attempted = 1
	for _, d := range endToEnd {
		rep.metrics[d.name] = 1
	}
	line, err := result(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(endToEnd) || !out.Correct {
		t.Errorf("result line %s", line)
	}
	delete(rep.metrics, "setup_s")
	if _, err := result(rep, false); err == nil {
		t.Error("a missing end-to-end metric was not reported")
	}
}

var tiny = libSpec{
	name: "tiny", variant: castencil.CA,
	cfg:   castencil.Config{N: 48, TileRows: 8, P: 2, Steps: 5, StepSize: 3},
	ranks: 1, workers: 2,
}

func TestGridDigestIsGridSHA256(t *testing.T) {
	_, res, err := solve(tiny, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gridDigest(res.Grid), castencil.GridSHA256(res.Grid); got != want {
		t.Fatalf("gridDigest %s, GridSHA256 %s", got, want)
	}
}

func TestCorruptedGridCountsAsFailure(t *testing.T) {
	var recs []solveRec
	for _, seed := range []uint64{3, 5} {
		_, res, err := solve(tiny, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 5 {
			res.Grid.Set(17, 23, res.Grid.At(17, 23)+1e-12)
		}
		recs = append(recs, solveRec{seed: seed, digest: gridDigest(res.Grid)})
	}
	if ok := checkSolves(tiny, recs); !ok[0] || ok[1] || countFalse(ok) != 1 {
		t.Fatalf("checkSolves = %v, want [true false]", ok)
	}

	spec := server.Spec{Variant: "base", N: 32, Tile: 8, Steps: 4, Seed: 9}
	variant, cfg := specConfig(spec)
	res, err := castencil.Run(variant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := &jobRec{id: "good", plan: plannedJob{spec: spec}, res: server.Result{GridSHA256: castencil.GridSHA256(res.Grid)}}
	res.Grid.Set(0, 0, -res.Grid.At(0, 0))
	bad := &jobRec{id: "bad", plan: plannedJob{spec: spec}, res: server.Result{GridSHA256: castencil.GridSHA256(res.Grid)}}
	sim := server.Spec{Engine: "sim", Variant: "ca", N: 256, Tile: 32, Nodes: 4, Steps: 10, StepSize: 5}
	simRec := &jobRec{id: "sim", plan: plannedJob{spec: sim}, res: server.Result{MakespanMS: 1, Messages: 1}}
	checkJobs([]*jobRec{good, bad, simRec})
	if good.err != nil || bad.err == nil || simRec.err == nil {
		t.Fatalf("errors good=%v bad=%v sim=%v; want only bad and sim to fail", good.err, bad.err, simRec.err)
	}
}

func TestSelfTimes(t *testing.T) {
	l := &spanLog{}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := l.reserve()
	l.add(1, root, 0, "a", at(0), at(4))
	l.add(1, root, 0, "b", at(3), at(7)) // overlaps a by 1ms
	l.finish(root, 1, 0, 0, "solve", at(0), at(10))
	self := l.selfTimes()
	if self[root] != 3*time.Millisecond {
		t.Errorf("root self %v, want 3ms", self[root])
	}
	if u := l.unattributed(self); len(u) != 1 || u[0] != 3 {
		t.Errorf("unattributed %v, want [3]", u)
	}
	if got := l.byName("b", 0, self); len(got) != 1 || got[0] != 4 {
		t.Errorf("byName(b) = %v", got)
	}
}
