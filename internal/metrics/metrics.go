// Package metrics computes the paper's two objectives — SysEfficiency and
// Dilation (Section 2.2) — from per-application execution records, plus the
// summary statistics used across the evaluation (means over replicates,
// throughput-decrease distributions, per-application dilations).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AppPerf records the outcome of one application's execution, produced by
// the simulator or the cluster emulator.
type AppPerf struct {
	ID    int
	Name  string
	Nodes int // β(k)

	Release float64 // r(k)
	Finish  float64 // d(k)

	// Work is the application's total computation Σ w(k,i).
	Work float64
	// IdealTime is the congestion-free execution time Σ (w + time_io).
	IdealTime float64

	// IOTime is the wall-clock time from first wanting I/O to completing
	// it, summed over instances (includes stalled time).
	IOTime float64
	// Volume is the total bytes transferred (GiB).
	Volume float64
}

// AchievedEff returns ρ̃(k)(d_k) = Work / (d_k − r_k).
func (a AppPerf) AchievedEff() float64 {
	el := a.Finish - a.Release
	if el <= 0 {
		return 1
	}
	return a.Work / el
}

// OptimalEff returns ρ(k)(d_k) = Work / IdealTime.
func (a AppPerf) OptimalEff() float64 {
	if a.IdealTime <= 0 {
		return 1
	}
	return a.Work / a.IdealTime
}

// Dilation returns ρ(k)/ρ̃(k) ≥ 1, the application's slowdown factor.
func (a AppPerf) Dilation() float64 {
	ae := a.AchievedEff()
	if ae <= 0 {
		return math.Inf(1)
	}
	return a.OptimalEff() / ae
}

// Summary aggregates the objectives over one run.
type Summary struct {
	// SysEfficiency is (100/N)·Σ β(k)·ρ̃(k)(d_k), in percent.
	SysEfficiency float64
	// UpperLimit is (100/N)·Σ β(k)·ρ(k)(d_k): the best possible
	// SysEfficiency for this application mix, in percent.
	UpperLimit float64
	// Dilation is max_k ρ(k)/ρ̃(k).
	Dilation float64
	// MeanDilation is the node-weighted average slowdown (not a paper
	// objective, but useful in reports).
	MeanDilation float64
	// Makespan is max_k d(k).
	Makespan float64
}

// Summarize computes the run objectives over the given applications on a
// platform with totalNodes nodes. Idle nodes (not assigned to any
// application) count against SysEfficiency exactly as in the paper's
// definition. It is SummarizeWindow over (−∞, +∞), where every weight is
// exactly 1.
func Summarize(apps []AppPerf, totalNodes int) Summary {
	return SummarizeWindow(apps, totalNodes, math.Inf(-1), math.Inf(1))
}

// SummarizeWindow computes the objectives restricted to the window
// [start, end]: each application contributes with weight = the fraction
// of its [Release, Finish] lifetime overlapping the window (apps with no
// overlap are excluded), and Makespan is the latest in-window finish. It
// is the open-system steady-state variant of the paper's objectives. A
// lifetime inside the window has weight exactly 1, and weight·β is then
// β itself, so a window covering every application performs the
// floating-point operations of the unwindowed definition.
func SummarizeWindow(apps []AppPerf, totalNodes int, start, end float64) Summary {
	if totalNodes <= 0 {
		panic(fmt.Sprintf("metrics: totalNodes = %d", totalNodes))
	}
	var s Summary
	s.Dilation = 1
	var dsum, nodes float64
	for _, a := range apps {
		weight, last := overlapWeight(a, start, end)
		if weight <= 0 {
			continue
		}
		wn := float64(weight * float64(a.Nodes))
		s.SysEfficiency += float64(wn * a.AchievedEff())
		s.UpperLimit += float64(wn * a.OptimalEff())
		if d := a.Dilation(); d > s.Dilation {
			s.Dilation = d
		}
		dsum += float64(wn * a.Dilation())
		nodes += wn
		if last > s.Makespan {
			s.Makespan = last
		}
	}
	s.SysEfficiency *= 100 / float64(totalNodes)
	s.UpperLimit *= 100 / float64(totalNodes)
	if nodes > 0 {
		s.MeanDilation = dsum / nodes
	}
	return s
}

// overlapWeight returns the fraction of a's lifetime inside [start, end]
// and the in-window end instant it contributes to Makespan. A lifetime
// inside the window returns exactly 1 and its Finish; so does one with a
// NaN bound, as Summarize has always counted every record. Zero-length
// lifetimes count fully when their instant lies in the window.
func overlapWeight(a AppPerf, start, end float64) (weight, last float64) {
	if !(a.Release < start || a.Finish > end) {
		return 1, a.Finish
	}
	lo, hi := max(a.Release, start), min(a.Finish, end)
	if hi < lo {
		return 0, 0
	}
	dur := a.Finish - a.Release
	if dur <= 0 {
		// Instantaneous lifetime intersecting the window: all of it.
		return 1, hi
	}
	return (hi - lo) / dur, hi
}

// PerAppDilations returns each application's slowdown, ordered by ID.
func PerAppDilations(apps []AppPerf) []float64 {
	sorted := make([]AppPerf, len(apps))
	copy(sorted, apps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	out := make([]float64, len(sorted))
	for i, a := range sorted {
		out[i] = a.Dilation()
	}
	return out
}

// ThroughputDecrease returns, for each application, the relative decrease
// of its achieved I/O throughput versus dedicated mode, in percent
// (Figure 1 of the paper). Dedicated throughput over an application's I/O
// phases is Volume / (IdealTime − Work); achieved is Volume / IOTime.
func ThroughputDecrease(apps []AppPerf) []float64 {
	out := make([]float64, 0, len(apps))
	for _, a := range apps {
		idealIO := a.IdealTime - a.Work
		if idealIO <= 0 || a.Volume <= 0 || a.IOTime <= 0 {
			continue
		}
		dedicated := a.Volume / idealIO
		achieved := a.Volume / a.IOTime
		dec := 100 * (1 - achieved/dedicated)
		if dec < 0 {
			dec = 0
		}
		out = append(out, dec)
	}
	return out
}
