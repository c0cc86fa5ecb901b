package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail read from fewer samples is one outlier, not a percentile.
const minTail = 10

// tailLadder is the set of percentiles the tail is chosen from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// pcts summarizes a latency sample.
type pcts struct {
	N   int
	P50 float64
	// TailQ is the highest ladder percentile with at least minTail samples
	// beyond it, and Tail its value. TailQ is 0 when the sample is too small
	// for any of them; Tail is then the maximum.
	TailQ float64
	Tail  float64
	// P99 is the 99th percentile when it has minTail samples beyond it,
	// otherwise the tail as defined above.
	P99 float64
}

// summarize returns the median and tail of xs (nearest-rank percentiles).
// xs is sorted in place.
func summarize(xs []float64) pcts {
	p := pcts{N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	sort.Float64s(xs)
	p.P50 = rank(xs, 50)
	p.Tail = xs[len(xs)-1]
	for _, q := range tailLadder {
		if beyond(len(xs), q) >= minTail {
			p.TailQ, p.Tail = q, rank(xs, q)
			break
		}
	}
	p.P99 = p.Tail
	if beyond(len(xs), 99) >= minTail {
		p.P99 = rank(xs, 99)
	}
	return p
}

// rank is the nearest-rank q-th percentile of sorted xs.
func rank(xs []float64, q float64) float64 {
	i := rankIndex(len(xs), q) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond counts the samples strictly above the nearest-rank q-th percentile
// of n samples.
func beyond(n int, q float64) int {
	return n - rankIndex(n, q)
}

// rankIndex is the 1-based nearest rank of the q-th percentile of n
// samples; the epsilon keeps 99.9% of 20000 at 19980, not 19981.
func rankIndex(n int, q float64) int {
	return int(math.Ceil(q*float64(n)/100 - 1e-9))
}
