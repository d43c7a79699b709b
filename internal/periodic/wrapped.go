package periodic

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
)

// This file implements the *general* periodic schedule of Section 3.2.1,
// where activity may wrap around the period boundary and an instance's I/O
// may be split across several constant-bandwidth intervals (the S events
// partition the period into intervals Int_1..Int_S with per-application
// bandwidths γ_s). The insertion heuristics build the restricted
// non-wrapping form (schedule.go); this representation exists to express
// and verify schedules the restricted form cannot — most prominently the
// 3-Partition construction of Theorem 1 — and to validate externally
// produced timetables.

// Span is a half-open interval on the period circle [0, T). Start may
// exceed End, in which case the span wraps: [Start, T) ∪ [0, End).
type Span struct {
	Start, End float64
}

// Length returns the span's duration within a period of length T.
func (s Span) Length(T float64) float64 {
	if s.Start <= s.End {
		return s.End - s.Start
	}
	return (T - s.Start) + s.End
}

// normalize splits a possibly wrapping span into 1 or 2 linear intervals.
func (s Span) normalize(T float64) [][2]float64 {
	if s.Start <= s.End {
		return [][2]float64{{s.Start, s.End}}
	}
	return [][2]float64{{s.Start, T}, {0, s.End}}
}

// IOInterval is one constant-bandwidth piece of an instance's transfer.
type IOInterval struct {
	Span Span
	BW   float64 // aggregate bandwidth β·γ during the piece
}

// WrappedSlot is one instance in the general form: a (possibly wrapping)
// compute span followed by any number of transfer pieces inside the gap to
// the next instance's compute span.
type WrappedSlot struct {
	Work Span
	IO   []IOInterval
}

// WrappedAppSchedule is the general per-application timetable.
type WrappedAppSchedule struct {
	App   *platform.App
	Slots []WrappedSlot
}

// WrappedSchedule is a periodic schedule in the paper's full formal model.
type WrappedSchedule struct {
	Platform *platform.Platform
	T        float64
	Apps     []*WrappedAppSchedule
}

// NPer returns the instances per period of application index i.
func (s *WrappedSchedule) NPer(i int) int { return len(s.Apps[i].Slots) }

// AppEfficiency returns ρ̃(k) = n_per·w / T.
func (s *WrappedSchedule) AppEfficiency(i int) float64 {
	as := s.Apps[i]
	return float64(len(as.Slots)) * workOf(as.App) / s.T
}

// SysEfficiency returns (100/N)·Σ β(k)·ρ̃(k).
func (s *WrappedSchedule) SysEfficiency() float64 {
	var sum float64
	for i, as := range s.Apps {
		sum += float64(as.App.Nodes) * s.AppEfficiency(i)
	}
	return 100 * sum / float64(s.Platform.Nodes)
}

// Dilation returns max_k ρ(k)/ρ̃(k).
func (s *WrappedSchedule) Dilation() float64 {
	d := 1.0
	for i, as := range s.Apps {
		eff := s.AppEfficiency(i)
		if eff <= 0 {
			return math.Inf(1)
		}
		if v := as.App.OptimalEfficiency(s.Platform) / eff; v > d {
			d = v
		}
	}
	return d
}

// Validate checks all constraints of Section 3.2.1 in the general form:
//
//   - compute spans have length w and do not overlap within an application;
//   - each instance transfers exactly vol GiB across its I/O pieces;
//   - each application's activity (compute + I/O pieces) tiles the period
//     without self-overlap;
//   - every piece respects γ ≤ b (per node), i.e. aggregate ≤ β·b;
//   - at every instant, Σ_k β(k)·γ_s(k) ≤ B.
func (s *WrappedSchedule) Validate() error {
	if s.T <= 0 {
		return fmt.Errorf("periodic: period %g, want > 0", s.T)
	}
	type edge struct {
		t  float64
		bw float64
	}
	edgeOrder := func(a, b edge) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.bw, b.bw)
	}
	var edges []edge
	addUsage := func(sp Span, bw float64) {
		for _, iv := range sp.normalize(s.T) {
			if iv[1] > iv[0] {
				edges = append(edges, edge{iv[0], bw}, edge{iv[1], -bw})
			}
		}
	}

	for _, as := range s.Apps {
		a := as.App
		if !a.IsPeriodic() {
			return fmt.Errorf("periodic: app %d is not periodic", a.ID)
		}
		if len(as.Slots) == 0 {
			continue
		}
		w, vol := workOf(a), volOf(a)
		// Per-application self-overlap check: collect all linearized
		// activity intervals and sweep.
		var own []edge
		for j, sl := range as.Slots {
			if got := sl.Work.Length(s.T); math.Abs(got-w) > 1e-6 {
				return fmt.Errorf("app %d slot %d: work length %g, want %g", a.ID, j, got, w)
			}
			for _, iv := range sl.Work.normalize(s.T) {
				own = append(own, edge{iv[0], 1}, edge{iv[1], -1})
			}
			var moved float64
			for p, piece := range sl.IO {
				if piece.BW < 0 {
					return fmt.Errorf("app %d slot %d piece %d: negative bandwidth", a.ID, j, p)
				}
				if piece.BW > float64(a.Nodes)*s.Platform.NodeBW+1e-9 {
					return fmt.Errorf("app %d slot %d piece %d: bandwidth %g exceeds β·b = %g",
						a.ID, j, p, piece.BW, float64(a.Nodes)*s.Platform.NodeBW)
				}
				length := piece.Span.Length(s.T)
				moved += piece.BW * length
				for _, iv := range piece.Span.normalize(s.T) {
					own = append(own, edge{iv[0], 1}, edge{iv[1], -1})
				}
				addUsage(piece.Span, piece.BW)
			}
			if math.Abs(moved-vol) > 1e-6*math.Max(1, vol) {
				return fmt.Errorf("app %d slot %d: transfers %g GiB, want %g", a.ID, j, moved, vol)
			}
		}
		slices.SortStableFunc(own, edgeOrder)
		depth := 0.0
		for _, e := range own {
			depth += e.bw
			if depth > 1+1e-9 {
				return fmt.Errorf("app %d: overlapping activity at t = %g", a.ID, e.t)
			}
		}
	}

	slices.SortStableFunc(edges, edgeOrder)
	var usage float64
	for _, e := range edges {
		usage += e.bw
		if usage > s.Platform.TotalBW+1e-6 {
			return fmt.Errorf("periodic: total bandwidth %g exceeds B = %g at t = %g",
				usage, s.Platform.TotalBW, e.t)
		}
	}
	return nil
}

// Wrap converts a non-wrapping schedule built by the insertion heuristics
// into the general form (every valid restricted schedule is a valid
// general schedule).
func Wrap(s *Schedule) *WrappedSchedule {
	out := &WrappedSchedule{Platform: s.Platform, T: s.T}
	for _, as := range s.Apps {
		was := &WrappedAppSchedule{App: as.App}
		for _, sl := range as.Slots {
			wsl := WrappedSlot{Work: Span{Start: sl.WorkStart, End: sl.WorkEnd}}
			if sl.IOEnd > sl.IOStart && sl.BW > 0 {
				wsl.IO = []IOInterval{{Span: Span{Start: sl.IOStart, End: sl.IOEnd}, BW: sl.BW}}
			}
			was.Slots = append(was.Slots, wsl)
		}
		out.Apps = append(out.Apps, was)
	}
	return out
}

// ScheduleFromPartition builds the wrapped periodic schedule of Theorem 1's
// constructive direction: for a verified 3-Partition solution, application
// k ∈ triplet I_i transfers at full bandwidth during [i, i+1) and computes
// during the remaining n−1 units, wrapping around the period boundary.
// The result is a complete, validated WrappedSchedule with dilation 1 and
// SysEfficiency (n−1)/n.
func (tp ThreePartition) ScheduleFromPartition(b float64, triplets [][]int) (*WrappedSchedule, error) {
	if err := tp.VerifyPartition(b, triplets); err != nil {
		return nil, err
	}
	n := len(tp.A) / 3
	p, apps := tp.Reduce(b)
	s := &WrappedSchedule{Platform: p, T: float64(n)}
	slotOf := make(map[int]WrappedSlot, len(tp.A))
	for i, trip := range triplets {
		// The transfer occupies the unit interval [i, i+1); the compute
		// occupies the complement of the period, wrapping around the
		// boundary except for the last triplet, whose complement
		// [0, n−1) is linear.
		io := Span{Start: float64(i), End: float64(i + 1)}
		work := Span{Start: float64(i + 1), End: float64(i)} // wrapping
		if i == n-1 {
			work = Span{Start: 0, End: float64(n - 1)}
		}
		for _, k := range trip {
			slotOf[k] = WrappedSlot{
				Work: work,
				IO:   []IOInterval{{Span: io, BW: float64(apps[k].Nodes) * b}},
			}
		}
	}
	for k, a := range apps {
		s.Apps = append(s.Apps, &WrappedAppSchedule{App: a, Slots: []WrappedSlot{slotOf[k]}})
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("periodic: 3-partition construction invalid: %w", err)
	}
	return s, nil
}
