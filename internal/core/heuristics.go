package core

import "fmt"

// OrderFunc sorts the candidate applications into favored-first order.
// It must be a strict weak ordering and deterministic; ties are broken by
// application ID before the function sees the slice.
type OrderFunc func(now float64, apps []*AppView)

// Heuristic is an online scheduler built from a favored-first ordering and
// the greedy allocation of Section 3.1. If Priority is set, applications
// whose current transfer already started are kept ahead of all others
// (each group internally ordered by the heuristic) — the disk-locality
// variant used on machines with spinning disks such as Vesta.
type Heuristic struct {
	name     string
	order    OrderFunc
	Priority bool

	// memoizable marks orderings that read only discrete AppView state
	// (LastIOEnd, Started, ...) and never the decision time, so engines
	// may reuse a decision while those inputs are unchanged.
	memoizable bool
}

var _ Scheduler = (*Heuristic)(nil)
var _ ScratchAllocator = (*Heuristic)(nil)

// Name implements Scheduler.
func (h *Heuristic) Name() string {
	if h.Priority {
		return "Priority-" + h.name
	}
	return h.name
}

// WithPriority returns a copy of the heuristic with the Priority constraint
// enabled.
func (h *Heuristic) WithPriority() *Heuristic {
	c := *h
	c.Priority = true
	return &c
}

// Memoizable implements the engine capability: true only for orderings
// that are pure functions of discrete application state. The Priority
// partition reads Started, which is also discrete, so it preserves the
// property — but note Started flips true when a grant is first applied,
// i.e. as a consequence of the decision itself, so engines must count
// decision application among the events that invalidate a memo (see the
// Memoizable contract in allocate.go).
func (h *Heuristic) Memoizable() bool { return h.memoizable }

// Saturating implements the engine capability: greedy favored-first
// allocation hands every candidate its full cap when the total demand
// fits, whatever the order.
func (h *Heuristic) Saturating() bool { return true }

// SingleFullGrant implements the engine capability: greedy allocation of a
// single candidate is min(β·b, B) under any ordering.
func (h *Heuristic) SingleFullGrant() bool { return true }

// Allocate implements Scheduler: sort candidates favored-first, then grant
// greedily.
func (h *Heuristic) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return h.AllocateInto(&scr, now, apps, cap)
}

// AllocateInto implements ScratchAllocator: identical decisions to
// Allocate, reusing the scratch's order and grant buffers.
//
//iosched:allocfree
func (h *Heuristic) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	scr.order = append(scr.order[:0], apps...)
	order := scr.order
	sortViewsStable(order, func(a, b *AppView) bool { return a.ID < b.ID })
	h.order(now, order)
	if h.Priority {
		// Stable partition: started transfers first, preserving the
		// heuristic order inside each group.
		sortViewsStable(order, func(a, b *AppView) bool {
			return a.Started && !b.Started
		})
	}
	scr.grants = GreedyAllocateAppend(scr.grants[:0], order, cap)
	return scr.grants
}

// byLastIOEnd orders by the completion time of the last finished I/O,
// oldest first.
func byLastIOEnd(now float64, apps []*AppView) {
	sortViewsStable(apps, func(a, b *AppView) bool {
		return a.LastIOEnd < b.LastIOEnd
	})
}

// RoundRobin returns the paper's comparison baseline heuristic: FCFS with a
// fairness twist. Without congestion every requester is served; under
// congestion the application that finished the I/O of its last instance the
// longest time ago is favored.
func RoundRobin() *Heuristic {
	return &Heuristic{
		name:       "RoundRobin",
		order:      byLastIOEnd,
		memoizable: true,
	}
}

// MinDilation returns the user-oriented heuristic: favor applications with
// low ρ̃(t)/ρ(t), i.e. the applications currently suffering the largest
// slowdown.
func MinDilation() *Heuristic {
	return &Heuristic{
		name: "MinDilation",
		order: func(now float64, apps []*AppView) {
			sortViewsStable(apps, func(a, b *AppView) bool {
				return a.Ratio(now) < b.Ratio(now)
			})
		},
	}
}

// MaxSysEff returns the CPU-oriented heuristic: favor applications with low
// β(k)·ρ̃(k)(t), the cheapest way to raise the platform-wide efficiency sum.
func MaxSysEff() *Heuristic {
	return &Heuristic{
		name: "MaxSysEff",
		order: func(now float64, apps []*AppView) {
			sortViewsStable(apps, func(a, b *AppView) bool {
				return a.WeightedEff(now) < b.WeightedEff(now)
			})
		},
	}
}

// MinMax returns the trade-off heuristic MinMax-γ: behave like MaxSysEff
// unless some application has fallen below the dilation threshold
// (ρ̃/ρ < γ), in which case the most-slowed applications are favored first.
// γ = 0 is exactly MaxSysEff and γ = 1 exactly MinDilation.
func MinMax(gamma float64) *Heuristic {
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("core: MinMax gamma = %g out of [0,1]", gamma))
	}
	return &Heuristic{
		name: fmt.Sprintf("MinMax-%.2g", gamma),
		order: func(now float64, apps []*AppView) {
			below := false
			for _, v := range apps {
				if v.Ratio(now) < gamma {
					below = true
					break
				}
			}
			if below {
				sortViewsStable(apps, func(a, b *AppView) bool {
					return a.Ratio(now) < b.Ratio(now)
				})
				return
			}
			sortViewsStable(apps, func(a, b *AppView) bool {
				return a.WeightedEff(now) < b.WeightedEff(now)
			})
		},
	}
}

// FairShare is the baseline standing in for the production server-side
// schedulers on Intrepid and Mira (and for unmodified IOR on Vesta): all
// applications that want I/O share the bandwidth max-min fairly, with no
// application-level information.
type FairShare struct{}

var _ Scheduler = FairShare{}
var _ ScratchAllocator = FairShare{}

// Name implements Scheduler.
func (FairShare) Name() string { return "fair-share" }

// Memoizable implements the engine capability: max-min sharing reads only
// node counts and capacity.
func (FairShare) Memoizable() bool { return true }

// Saturating implements the engine capability: max-min sharing caps every
// application at β·b, which all receive when the demand fits.
func (FairShare) Saturating() bool { return true }

// SingleFullGrant implements the engine capability: a lone candidate's
// max-min share is exactly min(β·b, B).
func (FairShare) SingleFullGrant() bool { return true }

// Allocate implements Scheduler.
func (f FairShare) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return f.AllocateInto(&scr, now, apps, cap)
}

// AllocateInto implements ScratchAllocator.
func (FairShare) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	scr.order = append(scr.order[:0], apps...)
	order := scr.order
	sortViewsStable(order, func(a, b *AppView) bool { return a.ID < b.ID })
	scr.caps = growFloats(scr.caps, len(order))
	scr.shares = growFloats(scr.shares, len(order))
	scr.idx = growInts(scr.idx, len(order))
	for i, v := range order {
		scr.caps[i] = float64(v.Nodes) * cap.NodeBW
	}
	MaxMinFairShareInto(scr.shares, scr.idx, scr.caps, cap.TotalBW)
	scr.grants = scr.grants[:0]
	for i, v := range order {
		if scr.shares[i] > 0 {
			scr.grants = append(scr.grants, Grant{AppID: v.ID, BW: scr.shares[i]})
		}
	}
	return scr.grants
}

// ProportionalShare is a baseline that splits bandwidth proportionally to
// application size (weight β), capped per application at β·b — the
// behaviour of a file system whose service rate follows stream counts,
// since an application's stream count scales with its allocation. It sits
// between FairShare (equal shares) and the paper's application-aware
// heuristics in the ablation benchmarks.
type ProportionalShare struct{}

var _ Scheduler = ProportionalShare{}
var _ ScratchAllocator = ProportionalShare{}

// Name implements Scheduler.
func (ProportionalShare) Name() string { return "proportional-share" }

// Memoizable implements the engine capability.
func (ProportionalShare) Memoizable() bool { return true }

// Saturating implements the engine capability.
func (ProportionalShare) Saturating() bool { return true }

// Allocate implements Scheduler.
func (p ProportionalShare) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return p.AllocateInto(&scr, now, apps, cap)
}

// AllocateInto implements ScratchAllocator.
func (ProportionalShare) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	scr.order = append(scr.order[:0], apps...)
	order := scr.order
	sortViewsStable(order, func(a, b *AppView) bool { return a.ID < b.ID })
	scr.caps = growFloats(scr.caps, len(order))
	scr.weights = growFloats(scr.weights, len(order))
	scr.shares = growFloats(scr.shares, len(order))
	scr.idx = growInts(scr.idx, len(order))
	for i, v := range order {
		scr.caps[i] = float64(v.Nodes) * cap.NodeBW
		scr.weights[i] = float64(v.Nodes)
	}
	weightedFairShareInto(scr.shares, scr.idx, scr.caps, scr.weights, cap.TotalBW)
	scr.grants = scr.grants[:0]
	for i, v := range order {
		if scr.shares[i] > 0 {
			scr.grants = append(scr.grants, Grant{AppID: v.ID, BW: scr.shares[i]})
		}
	}
	return scr.grants
}

// Exclusive is a degenerate scheduler that serves a single application at a
// time in FCFS order (by pending time, then ID). It models the strictest
// congestion-avoidance policy and is used in ablation benchmarks.
type Exclusive struct{}

var _ Scheduler = Exclusive{}
var _ ScratchAllocator = Exclusive{}

// Name implements Scheduler.
func (Exclusive) Name() string { return "exclusive-fcfs" }

// Memoizable implements the engine capability: the choice reads only
// LastIOEnd and IDs. Exclusive is deliberately not Saturating — it stalls
// everyone but one application even without congestion.
func (Exclusive) Memoizable() bool { return true }

// SingleFullGrant implements the engine capability: with one candidate
// the exclusive choice is that candidate, at min(β·b, B).
func (Exclusive) SingleFullGrant() bool { return true }

// Allocate implements Scheduler.
func (e Exclusive) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return e.AllocateInto(&scr, now, apps, cap)
}

// AllocateInto implements ScratchAllocator.
func (Exclusive) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	if len(apps) == 0 {
		return nil
	}
	best := apps[0]
	for _, v := range apps[1:] {
		if v.LastIOEnd < best.LastIOEnd ||
			(v.LastIOEnd == best.LastIOEnd && v.ID < best.ID) {
			best = v
		}
	}
	bw := float64(best.Nodes) * cap.NodeBW
	if bw > cap.TotalBW {
		bw = cap.TotalBW
	}
	scr.grants = append(scr.grants[:0], Grant{AppID: best.ID, BW: bw})
	return scr.grants
}

// growFloats returns a float64 scratch slice of length n, reusing s's
// storage when it is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts returns an int scratch slice of length n, reusing s's storage
// when it is large enough.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// AllHeuristics returns the full set evaluated in Figure 6: the four base
// heuristics and their Priority variants, with the MinMax threshold the
// paper uses there (γ = 0.5).
func AllHeuristics() []Scheduler {
	base := []*Heuristic{RoundRobin(), MinDilation(), MaxSysEff(), MinMax(0.5)}
	out := make([]Scheduler, 0, 2*len(base))
	for _, h := range base {
		out = append(out, h, h.WithPriority())
	}
	return out
}

// ByName builds a scheduler from its report name. Recognized:
// RoundRobin, MinDilation, MaxSysEff, MinMax-<γ>, fair-share,
// proportional-share, exclusive-fcfs, and the heuristics with a
// "Priority-" prefix.
func ByName(name string) (Scheduler, error) {
	prio := false
	base := name
	if len(name) > 9 && name[:9] == "Priority-" {
		prio = true
		base = name[9:]
	}
	var h *Heuristic
	switch {
	case base == "RoundRobin":
		h = RoundRobin()
	case base == "MinDilation":
		h = MinDilation()
	case base == "MaxSysEff":
		h = MaxSysEff()
	case len(base) > 7 && base[:7] == "MinMax-":
		var gamma float64
		if _, err := fmt.Sscanf(base[7:], "%g", &gamma); err != nil {
			return nil, fmt.Errorf("core: bad MinMax threshold in %q: %v", name, err)
		}
		h = MinMax(gamma)
	case base == "fair-share":
		if prio {
			return nil, fmt.Errorf("core: fair-share has no Priority variant")
		}
		return FairShare{}, nil
	case base == "proportional-share":
		if prio {
			return nil, fmt.Errorf("core: proportional-share has no Priority variant")
		}
		return ProportionalShare{}, nil
	case base == "exclusive-fcfs":
		if prio {
			return nil, fmt.Errorf("core: exclusive-fcfs has no Priority variant")
		}
		return Exclusive{}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", name)
	}
	if prio {
		return h.WithPriority(), nil
	}
	return h, nil
}
