package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between order statistics. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// minOf and maxOf return the extremes of xs (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// tailLevels are the percentiles a timing may be reported at, ascending.
var tailLevels = []float64{50, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for timings: the highest of
// tailLevels not above want that still has at least ten samples beyond
// it. With 300 samples p95 has 15 samples beyond it and qualifies, p99
// has 3 and does not, so a request for p99 is answered at p95.
func tailPercentile(n int, want float64) float64 {
	best := tailLevels[0]
	for _, p := range tailLevels {
		if p > want {
			break
		}
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// segmentStats cuts one client's op times (milliseconds, in execution
// order) into segments of per ops and returns each full segment's median
// op time and its throughput in ops per second of busy time. Ops that do
// not fill a last segment are left out, so every segment weighs the same.
func segmentStats(ms []float64, per int) (medians, rates []float64) {
	for lo := 0; per > 0 && lo+per <= len(ms); lo += per {
		seg := ms[lo : lo+per]
		busy := 0.0
		for _, d := range seg {
			busy += d
		}
		medians = append(medians, median(seg))
		if busy > 0 {
			rates = append(rates, float64(per)/(busy/1e3))
		}
	}
	return medians, rates
}

// spread summarises repeated readings of one metric the way the
// acceptance check does: the distance between the first and the third
// quartile (exclusive method, as Python's statistics.quantiles) and the
// full range, each as a share of the median.
type spread struct {
	Median, Min, Max float64
	IQRShare         float64
	RangeShare       float64
}

func spreadOf(xs []float64) spread {
	s := sortedCopy(xs)
	sp := spread{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
	if sp.Median == 0 {
		return sp
	}
	q1, q3 := exclusiveQuartiles(s)
	sp.IQRShare = (q3 - q1) / math.Abs(sp.Median)
	sp.RangeShare = (sp.Max - sp.Min) / math.Abs(sp.Median)
	return sp
}

// exclusiveQuartiles mirrors statistics.quantiles(xs, n=4): the i-th cut
// sits at 1-based position i*(n+1)/4, interpolated linearly between the
// neighbouring order statistics (and, like Python, extrapolated from the
// outermost pair when the position falls outside the data).
func exclusiveQuartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
