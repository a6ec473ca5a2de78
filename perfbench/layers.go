package main

import (
	"time"

	"castencil/internal/grid"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// The direct layer timings below call one module function in a loop at the
// workload's own sizes. Each repeats a batch until it has run for
// batchTime and reports the median of timingReps batches.
const (
	batchTime  = 20 * time.Millisecond
	timingReps = 5
)

// timeBatches returns the median time per unit of work: fn does `units`
// units per call.
func timeBatches(units float64, fn func()) float64 {
	var per []float64
	for rep := 0; rep < timingReps; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < batchTime {
			fn()
			calls++
		}
		per = append(per, float64(time.Since(t0))/(float64(calls)*units))
	}
	return median(per)
}

// timePool is the cost of one runtime.GetBuf/PutBuf pair at a halo
// buffer's size, in ns.
func timePool(bytes int) float64 {
	const pairs = 1000
	return timeBatches(pairs, func() {
		for i := 0; i < pairs; i++ {
			runtime.PutBuf(runtime.GetBuf(bytes))
		}
	})
}

// timePackUnpack is the cost of grid.PackBytes and grid.UnpackBytes per KB
// over a tile's four cardinal halo rectangles at the given depth.
func timePackUnpack(tile, depth int) (packNS, unpackNS float64) {
	t := grid.NewTile(tile, tile, depth)
	var send, recv []grid.Rect
	total := 0
	for _, d := range grid.CardinalDirs {
		send = append(send, t.SendRect(d, depth))
		recv = append(recv, t.RecvRect(d, depth))
		total += t.SendRect(d, depth).Bytes()
	}
	bufs := make([][]byte, len(send))
	for i, rc := range send {
		bufs[i] = make([]byte, rc.Bytes())
	}
	kb := float64(total) / 1024
	packNS = timeBatches(kb, func() {
		for i, rc := range send {
			t.PackBytes(rc, bufs[i])
		}
	})
	unpackNS = timeBatches(kb, func() {
		for i, rc := range recv {
			t.UnpackBytes(rc, bufs[i])
		}
	})
	return packNS, unpackNS
}

// timeKernel is stencil.Apply's cost per point on a tile x tile interior
// with the Jacobi weights the workloads use.
func timeKernel(tile int) float64 {
	src := grid.NewTile(tile, tile, 1)
	dst := grid.NewTile(tile, tile, 1)
	init := stencil.HashInit(1)
	for r := 0; r < tile; r++ {
		for c := 0; c < tile; c++ {
			src.Set(r, c, init(r, c))
		}
	}
	rc := stencil.Interior(src)
	w := stencil.Jacobi()
	return timeBatches(float64(rc.Size()), func() { stencil.Apply(w, dst, src, rc) })
}
