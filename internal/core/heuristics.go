package core

import (
	"cmp"
	"fmt"
	"slices"
)

// sortKey names the quantity a Heuristic favors low values of.
type sortKey uint8

const (
	// keyLastIOEnd: completion time of the last finished I/O, oldest first.
	keyLastIOEnd sortKey = iota
	// keyRatio: ρ̃(t)/ρ(t), the most-slowed application first.
	keyRatio
	// keyWeightedEff: β·ρ̃(t), the cheapest efficiency gain first.
	keyWeightedEff
	// keyMinMax: keyRatio while some candidate's ratio is below the
	// heuristic's γ, keyWeightedEff otherwise.
	keyMinMax
)

// Heuristic is an online scheduler built from a favored-first ordering and
// the greedy allocation of Section 3.1. If Priority is set, applications
// whose current transfer already started are kept ahead of all others
// (each group internally ordered by the heuristic) — the disk-locality
// variant used on machines with spinning disks such as Vesta.
//
// The favored-first order is total — (Priority: started first), then key
// ascending, then ID ascending — so a verdict depends neither on the order
// of the candidate slice nor on a sorting algorithm. (Keys are finite for
// finite views; a NaN key or capacity is a caller error.)
type Heuristic struct {
	name     string
	key      sortKey
	gamma    float64 // keyMinMax's threshold
	Priority bool
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

// Memoizable implements the engine capability: true only for the key that
// reads discrete AppView state (LastIOEnd) and never the decision time, so
// engines may reuse a decision while those inputs are unchanged. The
// Priority partition reads Started, which is also discrete, so it
// preserves the property — but note Started flips true when a grant is
// first applied, i.e. as a consequence of the decision itself, so engines
// must count decision application among the events that invalidate a memo
// (see the Memoizable contract in allocate.go).
func (h *Heuristic) Memoizable() bool { return h.key == keyLastIOEnd }

// Saturating implements the engine capability: greedy favored-first
// allocation hands every candidate its full cap when the total demand
// fits, whatever the order.
func (h *Heuristic) Saturating() bool { return true }

// SingleFullGrant implements the engine capability: greedy allocation of a
// single candidate is min(β·b, B) under any ordering.
func (h *Heuristic) SingleFullGrant() bool { return true }

// Allocate implements Scheduler: favored-first greedy grants.
func (h *Heuristic) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return h.AllocateInto(&scr, now, apps, cap)
}

// keyed is one candidate in a favored-first heap: its sort key and its
// position in the candidate slice.
type keyed struct {
	key float64
	pos int32
}

// prefixLen is how many favored candidates one linear pass selects before
// the walk falls back to a heap. On Figure 6 traffic a call serves at most
// four candidates 83 % of the time (docs/performance.md, "The policy
// pass").
const prefixLen = 4

// AllocateInto implements ScratchAllocator: identical decisions to
// Allocate, reusing the scratch's buffers. Each key is evaluated once; the
// started candidates (Priority only) and then the rest are walked in the
// favored-first order of (key, ID), and the greedy walk of Section 3.1
// (GreedyAllocate's loop) stops as soon as the capacity is gone. Each group
// is walked in two stages: one linear pass picks its prefixLen most
// favored entries, which are served in order, and only if capacity is left
// are the group's other entries heapified and popped. When even prefixLen
// of the largest caps leave capacity over, the prefix cannot end the walk
// and the whole group goes to the heap at once. Either way the cost is
// O(n + k·log n) for k granted applications.
//
//iosched:allocfree
func (h *Heuristic) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	entries, split, maxNodes := h.fillKeys(scr, now, apps)
	grants := scr.grants[:0]
	avail := cap.TotalBW
	prefix := !(avail > prefixLen*float64(maxNodes)*cap.NodeBW)
	for _, group := range [2][]keyed{entries[split:], entries[:split]} {
		if avail <= 0 {
			break
		}
		if prefix {
			var top [prefixLen]keyed
			var m int
			group, m = selectFavored(apps, group, &top)
			for i := 0; i < m && avail > 0; i++ {
				grants, avail = serve(grants, apps[top[i].pos], cap.NodeBW, avail)
			}
			if !(avail > 0) { // spent, or a NaN capacity
				break
			}
		}
		for i := len(group)/2 - 1; i >= 0; i-- {
			siftDown(group, apps, i, group[i])
		}
		for len(group) > 0 && avail > 0 {
			v := apps[group[0].pos]
			last := len(group) - 1
			x := group[last]
			group = group[:last]
			if last > 0 {
				siftDown(group, apps, 0, x)
			}
			grants, avail = serve(grants, v, cap.NodeBW, avail)
		}
	}
	scr.grants = grants
	return grants
}

// selectFavored puts the m = min(prefixLen, len(group)) most favored
// entries of group into top[:m], most favored first, and moves every other
// entry to the front of group, which it returns shortened to them. One
// pass; an entry less favored than the m-th costs one comparison.
//
//iosched:allocfree
func selectFavored(apps []*AppView, group []keyed, top *[prefixLen]keyed) (rest []keyed, m int) {
	n := 0
	for _, e := range group {
		if m == prefixLen {
			if !favored(apps, e, top[m-1]) {
				group[n] = e
				n++
				continue
			}
			m--
			group[n] = top[m]
			n++
		}
		j := m
		for ; j > 0 && favored(apps, e, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = e
		m++
	}
	return group[:n], m
}

// fillKeys evaluates every candidate's sort key, once, into the scratch's
// heap storage: the candidates in the caller's order from the front, except
// that under Priority the started ones go in from the back. It returns the
// entries, where the two groups meet (len(apps) without Priority) and the
// largest Nodes among the candidates.
//
//iosched:allocfree
func (h *Heuristic) fillKeys(scr *Scratch, now float64, apps []*AppView) ([]keyed, int, int) {
	// Sized by the capacity of the caller's slice: an engine that presized
	// its view never sees the heap regrow behind it.
	//iosched:allocfree-allow grows to the run's high-water candidate capacity, then reused
	scr.heap = grow(scr.heap, cap(apps))
	entries := scr.heap[:len(apps)]
	below := false
	lo, hi := 0, len(entries)
	maxNodes := 0
	for i, v := range apps {
		var k float64
		switch h.key {
		case keyLastIOEnd:
			k = v.LastIOEnd
		case keyWeightedEff:
			k = v.WeightedEff(now)
		default: // keyRatio, keyMinMax
			k = v.Ratio(now)
			below = below || k < h.gamma
		}
		maxNodes = max(maxNodes, v.Nodes)
		if h.Priority && v.Started {
			hi--
			entries[hi] = keyed{key: k, pos: int32(i)}
		} else {
			entries[lo] = keyed{key: k, pos: int32(i)}
			lo++
		}
	}
	if h.key == keyMinMax && !below {
		for i := range entries {
			entries[i].key = apps[entries[i].pos].WeightedEff(now)
		}
	}
	return entries, lo, maxNodes
}

// favored reports whether a comes strictly before b in the favored-first
// order of one heap. IDs are unique, so the order is total.
func favored(apps []*AppView, a, b keyed) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return apps[a.pos].ID < apps[b.pos].ID
}

// siftDown places x into the min-heap (by favored) at or below hole i.
//
//iosched:allocfree
func siftDown(heap []keyed, apps []*AppView, i int, x keyed) {
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && favored(apps, heap[c+1], heap[c]) {
			c++
		}
		if !favored(apps, heap[c], x) {
			break
		}
		heap[i] = heap[c]
		i = c
	}
	heap[i] = x
}

// RoundRobin returns the paper's comparison baseline heuristic: FCFS with a
// fairness twist. Without congestion every requester is served; under
// congestion the application that finished the I/O of its last instance the
// longest time ago is favored.
func RoundRobin() *Heuristic {
	return &Heuristic{name: "RoundRobin", key: keyLastIOEnd}
}

// MinDilation returns the user-oriented heuristic: favor applications with
// low ρ̃(t)/ρ(t), i.e. the applications currently suffering the largest
// slowdown.
func MinDilation() *Heuristic {
	return &Heuristic{name: "MinDilation", key: keyRatio}
}

// MaxSysEff returns the CPU-oriented heuristic: favor applications with low
// β(k)·ρ̃(k)(t), the cheapest way to raise the platform-wide efficiency sum.
func MaxSysEff() *Heuristic {
	return &Heuristic{name: "MaxSysEff", key: keyWeightedEff}
}

// MinMax returns the trade-off heuristic MinMax-γ: behave like MaxSysEff
// unless some application has fallen below the dilation threshold
// (ρ̃/ρ < γ), in which case the most-slowed applications are favored first.
// γ = 0 is exactly MaxSysEff and γ = 1 exactly MinDilation.
func MinMax(gamma float64) *Heuristic {
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("core: MinMax gamma = %g out of [0,1]", gamma))
	}
	return &Heuristic{name: fmt.Sprintf("MinMax-%.2g", gamma), key: keyMinMax, gamma: gamma}
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
	order := idOrder(scr, apps)
	scr.caps = grow(scr.caps, len(order))
	scr.shares = grow(scr.shares, len(order))
	scr.idx = grow(scr.idx, len(order))
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

// idOrder returns apps ascending by ID: apps itself when it already is —
// the engines' candidate views arrive in ID order, and a stable sort of a
// sorted slice is the identity — else a stably sorted copy in scr.byID.
func idOrder(scr *Scratch, apps []*AppView) []*AppView {
	if slices.IsSortedFunc(apps, func(a, b *AppView) int { return cmp.Compare(a.ID, b.ID) }) {
		return apps
	}
	scr.byID = append(scr.byID[:0], apps...)
	slices.SortStableFunc(scr.byID, func(a, b *AppView) int { return cmp.Compare(a.ID, b.ID) })
	return scr.byID
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
	order := idOrder(scr, apps)
	scr.caps = grow(scr.caps, len(order))
	scr.weights = grow(scr.weights, len(order))
	scr.shares = grow(scr.shares, len(order))
	scr.idx = grow(scr.idx, len(order))
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

// grow returns a scratch slice of length n with unspecified contents,
// reusing s's storage when it is large enough and growing it the amortized
// way append does otherwise: candidate sets grow one application at a time.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
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
