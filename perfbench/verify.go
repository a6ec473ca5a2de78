package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	goruntime "runtime"
	"sync"

	castencil "castencil"
	"castencil/internal/stencil"
)

// gridDigest is castencil.GridSHA256 — sha256 over the grid's row-major
// float64 little-endian bytes — computed row by row, so checking an output
// does not allocate a copy of the grid inside the measured phase.
func gridDigest(g *castencil.Tile) string {
	h := sha256.New()
	buf := make([]byte, 8*g.Cols)
	for r := 0; r < g.Rows; r++ {
		for i, v := range g.Row(r, 0, g.Cols) {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceDigest runs the sequential oracle castencil.Verify compares
// against (Jacobi weights, zero boundary, HashInit(seed)) and fingerprints
// its final grid.
func referenceDigest(n, steps int, seed uint64) string {
	ref := stencil.NewReference(n, stencil.Jacobi(), stencil.HashInit(seed), stencil.ConstBoundary(0))
	ref.Run(steps)
	return gridDigest(ref.Grid())
}

// checkSolves reports, per solve, whether its grid is bitwise equal to the
// sequential reference of its seed. It runs after the measured phase, on
// every CPU.
func checkSolves(spec libSpec, recs []solveRec) []bool {
	ok := make([]bool, len(recs))
	parallelFor(len(recs), func(i int) {
		ok[i] = recs[i].digest == referenceDigest(spec.cfg.N, spec.cfg.Steps, recs[i].seed)
	})
	return ok
}

// parallelFor calls fn(0..n-1) on GOMAXPROCS goroutines.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < goruntime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
