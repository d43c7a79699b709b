package metrics

import (
	"math"
	"sort"
)

// Sample is a collection of scalar observations (one per replicate or per
// application).
type Sample []float64

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s Sample) Mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation, or NaN for an empty
// sample.
func (s Sample) Std() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(s)))
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s Sample) Min() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or NaN for an empty sample.
func (s Sample) Max() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks; NaN for an empty sample.
func (s Sample) Percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(s))
	copy(sorted, s)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(rank) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (1.96·σ/√n); NaN for samples of fewer than two
// observations. Replicate studies report mean ± CI95.
func (s Sample) CI95() float64 {
	if len(s) < 2 {
		return math.NaN()
	}
	return 1.96 * s.Std() / math.Sqrt(float64(len(s)))
}

// Histogram buckets the sample into bins of the given width starting at
// lo; values below lo (including -Inf) land in the first bin, values at
// or above lo+width*bins (including +Inf) in the last, and NaN in the
// first. The range checks happen in floating point BEFORE the int
// conversion: converting an out-of-range float (such as +Inf) to int
// saturates to the minimum integer on common architectures, which would
// silently file +Inf under the first bin. It returns the per-bin counts.
func (s Sample) Histogram(lo, width float64, bins int) []int {
	counts := make([]int, bins)
	for _, v := range s {
		i := 0
		if x := (v - lo) / width; x >= float64(bins) {
			i = bins - 1
		} else if x > 0 {
			i = int(x)
		}
		counts[i]++
	}
	return counts
}

// MeanSummary averages run summaries component-wise (as the paper does over
// its 200 replicates and its congested-moment sets).
func MeanSummary(runs []Summary) Summary {
	var out Summary
	if len(runs) == 0 {
		return out
	}
	for _, r := range runs {
		out.SysEfficiency += r.SysEfficiency
		out.UpperLimit += r.UpperLimit
		out.Dilation += r.Dilation
		out.MeanDilation += r.MeanDilation
		out.Makespan += r.Makespan
	}
	n := float64(len(runs))
	out.SysEfficiency /= n
	out.UpperLimit /= n
	out.Dilation /= n
	out.MeanDilation /= n
	out.Makespan /= n
	return out
}
