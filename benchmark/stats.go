package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// toMS expresses a duration in milliseconds.
func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// pickTail returns the highest ladder percentile, no higher than limit,
// that still has at least minBeyond of the n samples beyond it. With too
// few samples for any tail it falls back to the median.
func pickTail(n int, limit float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > limit {
			break
		}
		if float64(n)*(100-p)/100 >= minBeyond {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a
// spread computed here matches the one the driver computes. It needs two
// values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the first and the third quartile; over the
// median it is the spread the benchmark driver computes.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}
