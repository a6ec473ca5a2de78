//lint:file-ignore SA1019 this file drives the deprecated scheduler selectors on purpose.

package castencil_test

import (
	"testing"

	castencil "castencil"
)

// TestDeprecatedSchedSelectorsRunDefault pins the compatibility contract of
// the removed work-stealing scheduler: code that still asks for it, by
// constant or by spelling, runs the one shared-queue scheduler and gets a
// grid bitwise identical to a default run, with the same wire accounting.
func TestDeprecatedSchedSelectorsRunDefault(t *testing.T) {
	cfg := castencil.Config{N: 48, TileRows: 6, P: 2, Steps: 10, StepSize: 3}
	spec, err := castencil.WithSchedSpec("steal")
	if err != nil {
		t.Fatal(err)
	}
	if s, p, err := castencil.ParseSched("work-stealing"); err != nil || s != castencil.SharedQueue || p != castencil.FIFO {
		t.Errorf("ParseSched(work-stealing) = %v, %v, %v; want SharedQueue, FIFO", s, p, err)
	}
	for _, v := range []castencil.Variant{castencil.Base, castencil.CA} {
		def, err := castencil.Run(v, cfg, castencil.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range map[string]castencil.Option{
			"WithSched(WorkStealing)": castencil.WithSched(castencil.WorkStealing),
			`WithSchedSpec("steal")`:  spec,
		} {
			got, err := castencil.Run(v, cfg, castencil.WithWorkers(2), opt)
			if err != nil {
				t.Fatalf("%v %s: %v", v, name, err)
			}
			if !sameGrids(t, def.Grid, got.Grid) {
				t.Errorf("%v %s: grid differs from the default run", v, name)
			}
			if got.Exec.Messages != def.Exec.Messages || got.Exec.BytesSent != def.Exec.BytesSent {
				t.Errorf("%v %s: wire (%d msgs, %d B) != default (%d, %d)", v, name,
					got.Exec.Messages, got.Exec.BytesSent, def.Exec.Messages, def.Exec.BytesSent)
			}
		}
	}
}
