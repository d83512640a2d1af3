package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of an ascending
// slice by linear interpolation between closest ranks; 0 when empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return asc[lo] + (asc[hi]-asc[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// printed here can be compared with the ones the driver computes.  A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return asc[0], asc[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return asc[j-1] + (asc[j]-asc[j-1])*delta
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentileLadder lists the tail percentiles a timing may be reported
// at, lowest first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it; a percentile with
// fewer samples above it is decided by a handful of outliers.  It is
// 0 when even the median has fewer than ten samples above it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(100−p)/100 ≥ 10, without the rounding of the division
			best = p
		}
	}
	return best
}
