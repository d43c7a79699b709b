package periodic

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
)

// Slot is one scheduled instance of an application inside the period:
// a compute interval followed by one contiguous constant-bandwidth I/O
// transfer. (The formal model allows several transfer intervals per
// instance; the paper's insertion heuristics, like ours, place a single
// contiguous one.)
type Slot struct {
	WorkStart float64
	WorkEnd   float64
	IOStart   float64
	IOEnd     float64
	BW        float64 // aggregate bandwidth β·γ during the transfer
}

// AppSchedule is the per-period timetable of one application.
type AppSchedule struct {
	App   *platform.App
	Slots []Slot
}

// NPer returns n_per(k), the number of instances scheduled per period.
func (a *AppSchedule) NPer() int { return len(a.Slots) }

// Schedule is a complete periodic schedule: a period length and one
// timetable per application. Instances never wrap around the period
// boundary (any non-wrapping schedule is a valid
// periodic schedule, possibly with idle time before the period repeats).
type Schedule struct {
	Platform *platform.Platform
	T        float64
	Apps     []*AppSchedule
}

// workOf returns the per-instance work of a periodic application.
func workOf(a *platform.App) float64 { return a.Instances[0].Work }

// volOf returns the per-instance I/O volume of a periodic application.
func volOf(a *platform.App) float64 { return a.Instances[0].Volume }

// AppEfficiency returns ρ̃(k) = n_per(k)·w(k) / T for application index i
// (equation (1) in the paper).
func (s *Schedule) AppEfficiency(i int) float64 {
	as := s.Apps[i]
	return float64(as.NPer()) * workOf(as.App) / s.T
}

// SysEfficiency returns the steady-state system efficiency in percent:
// (100/N)·Σ β(k)·ρ̃(k).
func (s *Schedule) SysEfficiency() float64 {
	var sum float64
	for i, as := range s.Apps {
		sum += float64(as.App.Nodes) * s.AppEfficiency(i)
	}
	return 100 * sum / float64(s.Platform.Nodes)
}

// Dilation returns max_k ρ(k)/ρ̃(k). An application with no scheduled
// instance has infinite dilation.
func (s *Schedule) Dilation() float64 {
	d := 1.0
	for i, as := range s.Apps {
		eff := s.AppEfficiency(i)
		if eff <= 0 {
			return math.Inf(1)
		}
		opt := as.App.OptimalEfficiency(s.Platform)
		if v := opt / eff; v > d {
			d = v
		}
	}
	return d
}

// Validate checks every constraint of Section 3.2.1 (without wrap-around):
// per-application slot ordering, exact per-instance volumes, the per-node
// bandwidth cap γ ≤ b, and the global capacity Σ β(k)·γ(k) ≤ B at every
// instant of the period.
func (s *Schedule) Validate() error {
	if s.T <= 0 {
		return fmt.Errorf("periodic: period %g, want > 0", s.T)
	}
	type edge struct {
		t  float64
		bw float64 // +bw at start, -bw at end
	}
	var edges []edge
	for i, as := range s.Apps {
		a := as.App
		if !a.IsPeriodic() {
			return fmt.Errorf("periodic: app %d is not periodic", a.ID)
		}
		w, vol := workOf(a), volOf(a)
		prevEnd := 0.0
		for j, sl := range as.Slots {
			if sl.WorkStart < prevEnd-1e-9 {
				return fmt.Errorf("app %d slot %d starts at %g before previous end %g",
					a.ID, j, sl.WorkStart, prevEnd)
			}
			if math.Abs(sl.WorkEnd-sl.WorkStart-w) > 1e-6 {
				return fmt.Errorf("app %d slot %d work length %g, want %g",
					a.ID, j, sl.WorkEnd-sl.WorkStart, w)
			}
			if vol > 0 {
				if sl.IOStart < sl.WorkEnd-1e-9 {
					return fmt.Errorf("app %d slot %d I/O starts at %g before work end %g",
						a.ID, j, sl.IOStart, sl.WorkEnd)
				}
				if sl.IOEnd > s.T+1e-9 {
					return fmt.Errorf("app %d slot %d I/O ends at %g after period %g",
						a.ID, j, sl.IOEnd, s.T)
				}
				if sl.BW > float64(a.Nodes)*s.Platform.NodeBW+1e-9 {
					return fmt.Errorf("app %d slot %d bandwidth %g exceeds β·b = %g",
						a.ID, j, sl.BW, float64(a.Nodes)*s.Platform.NodeBW)
				}
				got := sl.BW * (sl.IOEnd - sl.IOStart)
				if math.Abs(got-vol) > 1e-6*math.Max(1, vol) {
					return fmt.Errorf("app %d slot %d transfers %g GiB, want %g",
						a.ID, j, got, vol)
				}
				edges = append(edges, edge{sl.IOStart, sl.BW}, edge{sl.IOEnd, -sl.BW})
				prevEnd = sl.IOEnd
			} else {
				prevEnd = sl.WorkEnd
			}
			if prevEnd > s.T+1e-9 {
				return fmt.Errorf("app %d slot %d ends at %g after period %g", a.ID, j, prevEnd, s.T)
			}
		}
		_ = i
	}
	slices.SortStableFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.bw, b.bw) // process ends before starts at ties
	})
	var usage float64
	for _, e := range edges {
		usage += e.bw
		if usage > s.Platform.TotalBW+1e-6 {
			return fmt.Errorf("total bandwidth %g exceeds B = %g at t = %g",
				usage, s.Platform.TotalBW, e.t)
		}
	}
	return nil
}

// String renders a compact timetable, useful in examples and debugging.
func (s *Schedule) String() string {
	out := fmt.Sprintf("periodic schedule T=%.4g on %s\n", s.T, s.Platform.Name)
	for i, as := range s.Apps {
		out += fmt.Sprintf("  app %d (β=%d): n_per=%d eff=%.3f\n",
			as.App.ID, as.App.Nodes, as.NPer(), s.AppEfficiency(i))
		for _, sl := range as.Slots {
			out += fmt.Sprintf("    work [%8.2f,%8.2f)  io [%8.2f,%8.2f) @ %.3g GiB/s\n",
				sl.WorkStart, sl.WorkEnd, sl.IOStart, sl.IOEnd, sl.BW)
		}
	}
	return out
}
