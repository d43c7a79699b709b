// Package periodic implements the paper's Section 3.2: periodic schedules
// for periodic applications. A periodic schedule of period T repeats the
// same pattern of compute intervals and constant-bandwidth I/O transfers
// every T seconds. Computing an optimal one is NP-complete (reduction from
// 3-Partition; see threepartition.go for the constructive half used in
// tests), so the package provides the paper's two greedy insertion
// heuristics plus the (1+ε) period search.
package periodic

import (
	"fmt"
	"math"
	"sort"
)

// Profile tracks aggregate bandwidth usage over one period [0, T) as a
// piecewise-constant function. It supports the two queries the insertion
// heuristics need: the maximum usage over an interval, and the breakpoints
// at which availability changes.
type Profile struct {
	T   float64
	pts []float64 // sorted breakpoints; pts[0] == 0
	use []float64 // use[i] is the usage on [pts[i], pts[i+1]) (last: to T)
}

// NewProfile returns an empty usage profile over [0, T).
func NewProfile(T float64) *Profile {
	if T <= 0 {
		panic(fmt.Sprintf("periodic: period %g, want > 0", T))
	}
	return &Profile{T: T, pts: []float64{0}, use: []float64{0}}
}

// Reset empties the profile and re-targets it to period T, keeping the
// breakpoint storage: the period search rebuilds a profile per candidate
// period, and reuse keeps that loop allocation-free at steady state.
func (p *Profile) Reset(T float64) {
	if T <= 0 {
		panic(fmt.Sprintf("periodic: period %g, want > 0", T))
	}
	p.T = T
	p.pts = append(p.pts[:0], 0)
	p.use = append(p.use[:0], 0)
}

// segment returns the index of the segment containing time t.
func (p *Profile) segment(t float64) int {
	// Binary search for the last breakpoint <= t.
	i := sort.SearchFloat64s(p.pts, t)
	if i == len(p.pts) || p.pts[i] > t {
		i--
	}
	return i
}

// split ensures t is a breakpoint and returns its segment index.
func (p *Profile) split(t float64) int {
	if t <= 0 {
		return 0
	}
	if t >= p.T {
		t = p.T
	}
	i := sort.SearchFloat64s(p.pts, t)
	if i < len(p.pts) && p.pts[i] == t {
		return i
	}
	// Insert after segment i-1, copying its usage.
	p.pts = append(p.pts, 0)
	p.use = append(p.use, 0)
	copy(p.pts[i+1:], p.pts[i:])
	copy(p.use[i+1:], p.use[i:])
	p.pts[i] = t
	p.use[i] = p.use[i-1]
	return i
}

// MaxUsage returns the maximum usage over [t0, t1). Intervals are clamped
// to [0, T].
func (p *Profile) MaxUsage(t0, t1 float64) float64 {
	if t0 < 0 {
		t0 = 0
	}
	if t1 > p.T {
		t1 = p.T
	}
	if t1 <= t0 {
		return 0
	}
	maxU := 0.0
	for i := p.segment(t0); i < len(p.pts) && p.pts[i] < t1; i++ {
		if p.use[i] > maxU {
			maxU = p.use[i]
		}
	}
	return maxU
}

// UsageAt returns the usage at time t.
func (p *Profile) UsageAt(t float64) float64 {
	if t < 0 || t >= p.T {
		return 0
	}
	return p.use[p.segment(t)]
}

// Add increases usage by bw on [t0, t1). The interval must lie within
// [0, T].
func (p *Profile) Add(t0, t1, bw float64) {
	if t0 < 0 || t1 > p.T+1e-9 || t1 < t0 {
		panic(fmt.Sprintf("periodic: Add interval [%g,%g) outside period [0,%g)", t0, t1, p.T))
	}
	if t1 > p.T {
		t1 = p.T
	}
	if t1 == t0 || bw == 0 {
		return
	}
	i0 := p.split(t0)
	i1 := p.split(t1) // t1 becomes a breakpoint; segments [i0, i1) are inside
	if t1 >= p.T {
		i1 = len(p.pts)
	}
	for i := i0; i < i1 && i < len(p.pts); i++ {
		if p.pts[i] >= t1 {
			break
		}
		p.use[i] += bw
	}
}

// NextBreak returns the first breakpoint strictly after t, or T.
func (p *Profile) NextBreak(t float64) float64 {
	i := sort.SearchFloat64s(p.pts, math.Nextafter(t, math.Inf(1)))
	if i >= len(p.pts) {
		return p.T
	}
	return p.pts[i]
}

// MaxOverall returns the peak usage over the whole period.
func (p *Profile) MaxOverall() float64 {
	m := 0.0
	for _, u := range p.use {
		if u > m {
			m = u
		}
	}
	return m
}
