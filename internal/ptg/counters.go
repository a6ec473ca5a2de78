package ptg

import "castencil/internal/fault"

// Counters is a run's additive accounting, reported identically by the real
// engine and the virtual-time simulator: both engines' results embed it, a
// distributed run folds every rank's Counters into rank 0's with Add, and
// the service exports it as metrics. A new counter added here reaches all of
// them at once. Values that do not sum across ranks or runs (elapsed time,
// makespan, ratios, per-node slices) stay on the engine results.
type Counters struct {
	// Messages and BytesSent count inter-node wire messages (a bundle counts
	// once) and their payload bytes.
	Messages  int `json:"messages"`
	BytesSent int `json:"bytes_sent"`
	// Bundles counts coalesced messages among Messages; Segments counts the
	// member payloads they carried. Both are zero with coalescing off.
	Bundles  int `json:"bundles"`
	Segments int `json:"segments"`
	// Fault counts injected faults and the recovery work that masked them
	// (all zero without a fault plan or the reliable transport).
	Fault fault.Stats `json:"fault"`
	// InteriorTasks and BorderTasks count executed tasks of kinds KindInner
	// and KindBorder (zero unless the graph was split).
	InteriorTasks int `json:"interior_tasks"`
	BorderTasks   int `json:"border_tasks"`
	// Inter-node work stealing (all zero without stealing). StealsRemote
	// counts migrated tasks a rank executed for a peer; MigratedTasks counts
	// tasks a rank shipped out, MigratedBytes the wire bytes their migration
	// round trips moved (input state + results). Steal traffic is never
	// folded into Messages/BytesSent.
	StealsRemote  int `json:"steals_remote"`
	MigratedTasks int `json:"migrated_tasks"`
	MigratedBytes int `json:"migrated_bytes"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Messages += o.Messages
	c.BytesSent += o.BytesSent
	c.Bundles += o.Bundles
	c.Segments += o.Segments
	c.Fault.Add(o.Fault)
	c.InteriorTasks += o.InteriorTasks
	c.BorderTasks += o.BorderTasks
	c.StealsRemote += o.StealsRemote
	c.MigratedTasks += o.MigratedTasks
	c.MigratedBytes += o.MigratedBytes
}

// BundleFill returns the mean member payloads per coalesced message (0 when
// no bundles were sent). A fill equal to the neighbor-pair dependency count
// means every exchange collapsed to one message.
func (c *Counters) BundleFill() float64 {
	if c.Bundles == 0 {
		return 0
	}
	return float64(c.Segments) / float64(c.Bundles)
}
