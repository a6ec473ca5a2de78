//lint:file-ignore SA1019 this file pins the deprecated result fields on purpose.

package castencil_test

import (
	"testing"
	"time"

	castencil "castencil"
)

// TestFacadeResultSelectors reads every field and method that ExecResult and
// SimResult (and SimResult.Sim) exposed before their counters moved into an
// embedded struct, with the type each had. It is the offline stand-in for
// the API-compatibility gate: a selector that stops compiling, or changes
// type, breaks the build here. A coalesced run also checks that the
// deprecated BundlesSent/BundleSegments still carry the bundle counts.
func TestFacadeResultSelectors(t *testing.T) {
	cfg := castencil.Config{N: 24, TileRows: 6, P: 2, Steps: 6, StepSize: 3}
	ex, err := castencil.Run(castencil.CA, cfg, castencil.WithCoalesce(castencil.CoalesceStep))
	if err != nil {
		t.Fatal(err)
	}
	r := ex.Exec
	var (
		_ time.Duration        = r.Elapsed
		_                      = r.Stores
		_ int                  = r.Messages + r.BytesSent + r.BundlesSent + r.BundleSegments
		_ int                  = r.Completed + r.Dropped
		_ []int                = r.NodeTasks
		_ []time.Duration      = r.NodeBusy
		_ []int                = r.NodeLocalHits
		_ []int                = r.NodeSteals
		_ []int                = r.NodeParks
		_ castencil.FaultStats = r.Fault
		_ float64              = r.OverlapRatio
		_ int                  = r.InteriorTasks + r.BorderTasks
		_ int                  = r.StealsRemote + r.MigratedTasks + r.MigratedBytes
		_ float64              = r.BundleFill()
	)
	if r.BundlesSent == 0 || r.BundlesSent != r.Bundles || r.BundleSegments != r.Segments {
		t.Errorf("deprecated BundlesSent/BundleSegments = %d/%d, Bundles/Segments = %d/%d",
			r.BundlesSent, r.BundleSegments, r.Bundles, r.Segments)
	}

	sim, err := castencil.Sim(castencil.CA, cfg, castencil.WithMachine(castencil.NaCL()),
		castencil.WithCoalesce(castencil.CoalesceStep))
	if err != nil {
		t.Fatal(err)
	}
	var (
		_ time.Duration        = sim.Makespan
		_ float64              = sim.GFLOPS
		_ int                  = sim.Messages + sim.BytesSent + sim.Bundles + sim.Segments
		_ []time.Duration      = sim.CommBusy
		_ castencil.FaultStats = sim.Fault
		_ float64              = sim.OverlapRatio
		_ int                  = sim.InteriorTasks + sim.BorderTasks
		_ int                  = sim.StealsRemote + sim.MigratedTasks + sim.MigratedBytes
		_ float64              = sim.BundleFill()
		d                      = sim.Sim
		_ time.Duration        = d.Makespan
		_ []time.Duration      = d.BusyTime
		_ int                  = d.Messages + d.BytesSent + d.Bundles + d.Segments + d.Tasks
		_ castencil.FaultStats = d.Fault
		_ float64              = d.OverlapRatio
		_ int                  = d.InteriorTasks + d.BorderTasks
		_ int                  = d.StealsRemote + d.MigratedTasks + d.MigratedBytes
		_ float64              = d.BundleFill() + d.Occupancy(0, 1)
	)
	if sim.Bundles != r.Bundles || sim.Segments != r.Segments || sim.Messages != r.Messages {
		t.Errorf("sim traffic %d msgs/%d bundles/%d segments != real %d/%d/%d",
			sim.Messages, sim.Bundles, sim.Segments, r.Messages, r.Bundles, r.Segments)
	}
}
