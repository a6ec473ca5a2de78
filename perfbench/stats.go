package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a tail percentile
// for it to be reported: a percentile with fewer samples beyond it is
// decided by a handful of outliers.
const minBeyond = 10

// tailLadder lists the tail percentiles, highest first. The library
// workloads are closed loops of a few hundred-millisecond solves, so within
// one run they collect tens of samples, not hundreds; p75 is the highest
// percentile that keeps ten of those samples beyond it.
var tailLadder = []float64{99, 95, 90, 75}

// quantile returns the q-th quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// beyond counts the samples strictly above the p-th percentile's rank:
// n - ceil(p/100 * n).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest ladder percentile that has at least
// minBeyond samples beyond it among n samples.
func tailPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples leave fewer than %d beyond every tail percentile", n, minBeyond)
}

// tail is a tail latency with the percentile it was taken at and the
// sample count behind it.
type tail struct {
	P     float64
	N     int
	Value float64
}

// tailOf evaluates the tail rule on xs: the pinned percentile p must keep
// minBeyond samples beyond it, or the run does not have enough samples to
// report that tail (the value is still returned, for the log).
func tailOf(xs []float64, p float64) (tail, error) {
	t := tail{P: p, N: len(xs), Value: quantile(sortedCopy(xs), p/100)}
	if b := beyond(len(xs), p); b < minBeyond {
		return t, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(xs), b, minBeyond)
	}
	return t, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
