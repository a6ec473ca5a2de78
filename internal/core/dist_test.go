package core

import (
	"net"
	"sync"
	"testing"

	"castencil/internal/fault"
	"castencil/internal/netcomm"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// connectPair establishes a two-rank loopback mesh on pre-bound listeners
// (no port races) and tears it down with the test.
func connectPair(t testing.TB, mut func(r int, o *netcomm.Options)) [2]*netcomm.Transport {
	t.Helper()
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	var ts [2]*netcomm.Transport
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := netcomm.Options{Rank: r, Addrs: addrs, Listener: lns[r]}
			if mut != nil {
				mut(r, &o)
			}
			ts[r], errs[r] = netcomm.Connect(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// runDistributed executes one real run across the two-rank mesh and returns
// both ranks' results (index = rank). Rank 0 carries the gathered grid and
// the globally-summed counters.
func runDistributed(t testing.TB, v Variant, cfg Config, base runtime.Options, ts [2]*netcomm.Transport) [2]*RealResult {
	t.Helper()
	var res [2]*RealResult
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := base
			opts.Dist = &runtime.Dist{Rank: r, Ranks: 2, Net: ts[r]}
			res[r], errs[r] = RunReal(v, cfg, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
	return res
}

// TestDistributedMatchesSingleProcess is the tentpole's acceptance test: a
// two-process (two-transport) loopback run must be bitwise identical to the
// single-process run and carry exactly the same wire accounting — and the
// accounting must in turn match the virtual-time simulator — in both
// coalesce modes, on the plain and the split graph (whose interior/border
// task counts the rank fold must sum to the single-process ones). One mesh
// serves all runs back to back, exercising the epoch machinery between jobs.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	ts := connectPair(t, nil)
	for _, tc := range []struct {
		name string
		tf   TransformMode
		mode ptg.CoalesceMode
	}{
		{"coalesce=off", TransformNone, ptg.CoalesceOff},
		{"coalesce=step", TransformNone, ptg.CoalesceStep},
		{"transform=split,coalesce=off", TransformSplit, ptg.CoalesceOff},
		{"transform=split,coalesce=step", TransformSplit, ptg.CoalesceStep},
	} {
		cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, StepSize: 3, Transform: tc.tf}
		mode := tc.mode
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.Options{Workers: 2, Coalesce: mode}
			single, err := RunReal(CA, cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			dist := runDistributed(t, CA, cfg, base, ts)
			if dist[1].Grid != nil {
				t.Error("rank 1 materialized a grid; only rank 0 should")
			}
			assertGridsBitwiseEqual(t, "distributed vs single-process", single.Grid, dist[0].Grid)

			d, s := dist[0].Exec, single.Exec
			if d.Messages != s.Messages || d.BytesSent != s.BytesSent ||
				d.Bundles != s.Bundles || d.Segments != s.Segments {
				t.Errorf("distributed traffic (%d msgs, %d bytes, %d bundles, %d segments) != single-process (%d, %d, %d, %d)",
					d.Messages, d.BytesSent, d.Bundles, d.Segments,
					s.Messages, s.BytesSent, s.Bundles, s.Segments)
			}
			if d.Completed != s.Completed {
				t.Errorf("distributed completed %d tasks, single-process %d", d.Completed, s.Completed)
			}
			if d.InteriorTasks != s.InteriorTasks || d.BorderTasks != s.BorderTasks ||
				(tc.tf == TransformSplit && d.InteriorTasks == 0) {
				t.Errorf("distributed split tasks %d interior + %d border, single-process %d + %d",
					d.InteriorTasks, d.BorderTasks, s.InteriorTasks, s.BorderTasks)
			}

			sim, err := Simulate(CA, cfg, SimOptions{Machine: machineForTest(), Coalesce: mode})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Messages != d.Messages || sim.BytesSent != d.BytesSent ||
				sim.Bundles != d.Bundles || sim.Segments != d.Segments {
				t.Errorf("sim traffic (%d msgs, %d bytes, %d bundles, %d segments) != distributed (%d, %d, %d, %d)",
					sim.Messages, sim.BytesSent, sim.Bundles, sim.Segments,
					d.Messages, d.BytesSent, d.Bundles, d.Segments)
			}
		})
	}
}

// TestDistributedReliable runs the two-rank mesh with the reliable transport
// on (sequence numbers, acks, retransmit timers riding the socket lanes) and
// checks exactly-once delivery end to end: bitwise-identical grid, no
// counter drift from retransmits or dedup.
func TestDistributedReliable(t *testing.T) {
	cfg := Config{N: 48, TileRows: 8, P: 2, Steps: 6, StepSize: 2}
	ts := connectPair(t, nil)
	rec := runtime.Options{Workers: 2, Recovery: fault.DefaultRecovery()}
	single, err := RunReal(CA, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	dist := runDistributed(t, CA, cfg, rec, ts)
	assertGridsBitwiseEqual(t, "reliable distributed vs single-process", single.Grid, dist[0].Grid)
	d, s := dist[0].Exec, single.Exec
	if d.Messages != s.Messages || d.BytesSent != s.BytesSent {
		t.Errorf("reliable distributed traffic (%d msgs, %d bytes) != single-process (%d, %d)",
			d.Messages, d.BytesSent, s.Messages, s.BytesSent)
	}
	if d.Dropped != 0 {
		t.Errorf("reliable distributed run dropped %d deliveries on a clean wire", d.Dropped)
	}
}

// TestDistributedWavefront covers the second kernel family over the wire:
// wavefront temporal blocking has a different dependency structure (diagonal
// pipelining) and so exercises different cross-rank traffic.
func TestDistributedWavefront(t *testing.T) {
	cfg := Config{N: 48, TileRows: 8, P: 2, Steps: 6, Wavefront: 3}
	ts := connectPair(t, nil)
	base := runtime.Options{Workers: 2}
	single, err := RunReal(WF, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	dist := runDistributed(t, WF, cfg, base, ts)
	assertGridsBitwiseEqual(t, "wavefront distributed vs single-process", single.Grid, dist[0].Grid)
	if d, s := dist[0].Exec, single.Exec; d.Messages != s.Messages || d.BytesSent != s.BytesSent {
		t.Errorf("wavefront distributed traffic (%d msgs, %d bytes) != single-process (%d, %d)",
			d.Messages, d.BytesSent, s.Messages, s.BytesSent)
	}
}
