package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: base-2 octaves subdivided into histSub linear
// sub-buckets (the HDR-histogram scheme), spanning 2^histMinExp seconds
// (~1 ns) through 2^(histMinExp+histOctaves) seconds (~160 days of
// latency — effectively +Inf for a service path). Relative quantile
// error is bounded by one sub-bucket, 1/histSub = 12.5%.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histMinExp  = -30
	histOctaves = 64
	histBuckets = histOctaves * histSub
)

// Histogram is a log-bucketed latency histogram over seconds. Record and
// Snapshot are lock-free (atomic counters), so service paths observe
// into it without coordination and monitoring reads never stop the
// world. The zero value is ready to use.
type Histogram struct {
	counts  [histBuckets]atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running value sum
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value in seconds to its bucket. Values at or below
// the smallest representable bound (including zero, negatives and NaN)
// land in bucket 0; values beyond the range land in the last bucket.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	if math.IsInf(v, 1) {
		return histBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	octave := exp - 1 - histMinExp
	if octave < 0 {
		return 0
	}
	if octave >= histOctaves {
		return histBuckets - 1
	}
	sub := int((frac*2 - 1) * histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return octave<<histSubBits | sub
}

// bucketUpper returns the inclusive upper bound of bucket i in seconds.
func bucketUpper(i int) float64 {
	octave := i >> histSubBits
	sub := i & (histSub - 1)
	return math.Ldexp(1+float64(float64(sub+1)/histSub), histMinExp+octave)
}

// Observe records one value in seconds.
//
//iosched:allocfree
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a wall-clock duration.
//
//iosched:allocfree
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// CountOver returns the total observation count and the count of
// observations above the given threshold, both read lock-free. "Above"
// is resolved at bucket granularity — observations sharing the
// threshold's bucket are counted as within it — so the split inherits
// the histogram's one-sub-bucket (12.5% relative) resolution. This is
// the sampling primitive of SLO burn-rate detection: two cumulative
// counters whose deltas over a window give the windowed error ratio.
//
//iosched:allocfree
func (h *Histogram) CountOver(threshold float64) (total, over uint64) {
	idx := bucketIndex(threshold)
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		total += c
		if i > idx {
			over += c
		}
	}
	return total, over
}

// HistogramBucket is one non-empty bucket of a snapshot: Count values
// were observed at or below LE (and above the previous bucket's LE).
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram: the
// non-empty buckets ascending by bound (counts per bucket, not
// cumulative), the total count and the value sum. Count is defined as
// the sum of the bucket counts, so a snapshot taken concurrently with
// observations is always internally consistent.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state without blocking writers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LE: bucketUpper(i), Count: c})
			s.Count += c
		}
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Merge returns the combination of two snapshots (bucket-wise count
// sums). Snapshots from different Histogram instances share the bucket
// layout, so merging is exact.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].LE < o.Buckets[j].LE):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].LE < s.Buckets[i].LE:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HistogramBucket{
				LE: s.Buckets[i].LE, Count: s.Buckets[i].Count + o.Buckets[j].Count,
			})
			i++
			j++
		}
	}
	return out
}

// Mean returns the average observed value, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1) by
// linear interpolation inside the containing bucket; NaN when empty.
// The estimate is within one sub-bucket (12.5% relative) of the truth.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := float64(q * float64(s.Count))
	var cum float64
	for k, b := range s.Buckets {
		next := cum + float64(b.Count)
		if target <= next || k == len(s.Buckets)-1 {
			lower := 0.0
			if k > 0 {
				lower = s.Buckets[k-1].LE
			}
			frac := (target - cum) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + float64(frac*(b.LE-lower))
		}
		cum = next
	}
	return s.Buckets[len(s.Buckets)-1].LE
}
