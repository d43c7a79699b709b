package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Grant is a bandwidth assignment for one application: the aggregate rate
// β(k)·γ(k) over all its nodes, in GiB/s.
type Grant struct {
	AppID int
	BW    float64
}

// Capacity describes the I/O capacity available at a decision event.
// TotalBW is the bandwidth the allocator may hand out (B, or the burst
// buffer ingest bandwidth while the buffer has free space); NodeBW is b.
type Capacity struct {
	TotalBW float64
	NodeBW  float64
}

// Scheduler decides, at every event, how the available bandwidth is shared
// among the applications that want to perform I/O. Implementations must be
// deterministic given identical inputs.
type Scheduler interface {
	// Name identifies the scheduler in reports ("MaxSysEff",
	// "Priority-MinDilation", "fair-share", ...).
	Name() string
	// Allocate returns one grant per application that receives nonzero
	// bandwidth. apps contains only applications with WantsIO() true, in
	// the engine's deterministic order; a policy must not depend on that
	// order (IDs are unique: break ties by ID).
	// The returned grants must respect Σ BW <= cap.TotalBW and per-app
	// BW <= β·NodeBW.
	Allocate(now float64, apps []*AppView, cap Capacity) []Grant
}

// GreedyAllocate walks the applications in the given favored-first order
// and hands each one min(β·b, bw_avail) until the capacity is exhausted.
// This is exactly the paper's notion of "favoring" an application: the
// favored application is executed as fast as possible; applications beyond
// the capacity are stalled.
func GreedyAllocate(order []*AppView, cap Capacity) []Grant {
	return GreedyAllocateAppend(make([]Grant, 0, len(order)), order, cap)
}

// GreedyAllocateAppend is GreedyAllocate writing into dst (usually a
// scratch buffer truncated to length zero), so hot paths re-deciding at
// every simulation event reuse one grant buffer instead of allocating per
// decision. It returns the extended slice.
//
//iosched:allocfree
func GreedyAllocateAppend(dst []Grant, order []*AppView, cap Capacity) []Grant {
	avail := cap.TotalBW
	for _, v := range order {
		if avail <= 0 {
			break
		}
		dst, avail = serve(dst, v, cap.NodeBW, avail)
	}
	return dst
}

// serve is one step of the greedy walk: v is executed as fast as possible,
// min(β·b, avail). It appends the grant unless it is zero and returns the
// bandwidth left.
func serve(dst []Grant, v *AppView, nodeBW, avail float64) ([]Grant, float64) {
	bw := float64(v.Nodes) * nodeBW
	if bw > avail {
		bw = avail
	}
	if bw <= 0 {
		return dst, avail
	}
	return append(dst, Grant{AppID: v.ID, BW: bw}), avail - bw
}

// Scratch holds the reusable buffers of one allocation call chain. An
// engine owns one Scratch per decision thread and passes it to
// AllocateInto on every decision; all slices grow to the high-water mark
// of the run and are then reused, making steady-state decisions
// allocation-free. The zero value is ready to use. A Scratch must not be
// shared between goroutines.
type Scratch struct {
	heap    []keyed    // Heuristic's favored-first heap
	byID    []*AppView // the share policies' ID-ordered copy
	expired []*AppView
	rest    []*AppView
	grants  []Grant
	caps    []float64
	weights []float64
	shares  []float64
	idx     []int

	// inner is the scratch of a wrapped scheduler (Timeout), allocated on
	// first use so plain heuristics pay nothing for it.
	inner *Scratch
}

// Inner returns the scratch reserved for a wrapped scheduler's own
// buffers, so wrapper and inner policy never clobber each other's slices.
//
//iosched:allocfree
func (s *Scratch) Inner() *Scratch {
	if s.inner == nil {
		//iosched:allocfree-allow first-use child Scratch, allocated once and reused for the rest of the run
		s.inner = &Scratch{}
	}
	return s.inner
}

// ScratchAllocator is implemented by schedulers whose Allocate can run out
// of caller-owned scratch buffers. AllocateInto must return exactly the
// grants Allocate would return for the same inputs; the returned slice
// aliases the scratch and is only valid until the next call with the same
// Scratch.
type ScratchAllocator interface {
	Scheduler
	AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant
}

// AllocateWith dispatches to AllocateInto when the scheduler supports
// scratch reuse and falls back to the allocating Allocate path otherwise.
//
//iosched:allocfree
func AllocateWith(s Scheduler, scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	if sa, ok := s.(ScratchAllocator); ok {
		return sa.AllocateInto(scr, now, apps, cap)
	}
	return s.Allocate(now, apps, cap)
}

// Memoizable is implemented by schedulers whose decisions may be reused
// verbatim: Allocate is a pure function of the candidate identities, their
// discrete scheduling state (every AppView field except the continuously
// draining RemVolume), and the capacity — independent of the decision
// time. Engines exploit this by skipping re-allocation at events that
// change none of those inputs (for example an application release that
// only starts a compute phase). Beware that applying a decision is itself
// such a change: a first grant flips Started, a preemption restarts
// PendingSince, and both toggle Phase. An engine must treat a decision
// whose application changed any discrete view field as invalidating its
// own memo, or a Priority ordering would keep reusing grants computed
// before the flip. Time-dependent policies (the dilation- and
// efficiency-ordered heuristics, Timeout) must not declare it: their
// favored-first order can flip through the mere passage of time.
type Memoizable interface {
	// Memoizable reports whether decisions may be reused while the
	// discrete inputs are unchanged.
	Memoizable() bool
}

// Saturating is implemented by schedulers that grant every candidate
// exactly its full per-application cap β·b whenever the total demand
// Σ β·b fits within the available capacity. All greedy favored-first
// heuristics and both fair-share baselines qualify (ordering only matters
// under congestion); Exclusive does not (it serves one application even
// when everyone would fit). Engines exploit this with an uncongested fast
// path that applies the known full-cap outcome without invoking the
// policy at all.
type Saturating interface {
	// Saturating reports whether an uncongested decision always grants
	// every candidate its full cap.
	Saturating() bool
}

// SingleFullGrant is implemented by schedulers whose decision for a
// candidate set of size one is always exactly min(β·b, B): the sole
// requester is served as fast as the hardware allows, independent of the
// decision time. True for every greedy favored-first heuristic (ordering
// one element is trivial), for max-min fair sharing, for Exclusive, and
// for Timeout over such an inner policy. Engines resolve single-candidate
// decision points without invoking the policy. ProportionalShare must not
// declare it: its weighted share computes total·w/w, which can round a
// ulp away from min(β·b, B).
type SingleFullGrant interface {
	// SingleFullGrant reports whether a one-candidate decision always
	// grants exactly min(β·b, B).
	SingleFullGrant() bool
}

// IsSingleFullGrant reports whether the scheduler declares the
// single-candidate fast path.
func IsSingleFullGrant(s Scheduler) bool {
	g, ok := s.(SingleFullGrant)
	return ok && g.SingleFullGrant()
}

// EngineCaps is a scheduler's resolved capability set. Execution engines
// (the simulator, the cluster emulator, the TCP daemon) resolve it once at
// startup and consult the flags on every decision point instead of
// repeating type assertions on the hot path.
type EngineCaps struct {
	// Memoizable, Saturating and SingleFullGrant mirror the capability
	// interfaces of the same names.
	Memoizable      bool
	Saturating      bool
	SingleFullGrant bool
	// Waker is non-nil when the scheduler wants self-chosen decision
	// points (core.Timeout promoting expired stalls).
	Waker Waker
}

// CapsOf resolves a scheduler's capabilities.
func CapsOf(s Scheduler) EngineCaps {
	w, _ := s.(Waker)
	return EngineCaps{
		Memoizable:      IsMemoizable(s),
		Saturating:      IsSaturating(s),
		SingleFullGrant: IsSingleFullGrant(s),
		Waker:           w,
	}
}

// SkipReason says how an execution engine resolved a decision point
// without invoking the scheduler. The values mirror the capability
// interfaces resolved by CapsOf: a skip is only legal when the policy
// declared the matching capability, and every engine (the simulator, the
// daemon) attributes each skipped decision point to exactly one reason.
// SkipNone marks a decision point where the policy actually ran.
type SkipReason uint8

const (
	// SkipNone: the scheduler was invoked (a full decision).
	SkipNone SkipReason = iota
	// SkipMemo: a Memoizable policy's previous decision was reused —
	// candidate set, discrete view state and capacity all unchanged.
	SkipMemo
	// SkipSaturating: a Saturating policy with total demand within
	// capacity; every candidate received its full cap β·b directly.
	SkipSaturating
	// SkipSingleFullGrant: a SingleFullGrant policy with one candidate;
	// it received exactly min(β·b, B) directly.
	SkipSingleFullGrant
)

// String returns the reason's report name ("memo", "saturating",
// "single-full-grant"; "decide" for SkipNone). These strings are the
// verdict vocabulary of the decision-trace layer (internal/dectrace).
func (r SkipReason) String() string {
	switch r {
	case SkipNone:
		return "decide"
	case SkipMemo:
		return "memo"
	case SkipSaturating:
		return "saturating"
	case SkipSingleFullGrant:
		return "single-full-grant"
	}
	return "unknown"
}

// IsMemoizable reports whether the scheduler declares reusable decisions.
func IsMemoizable(s Scheduler) bool {
	m, ok := s.(Memoizable)
	return ok && m.Memoizable()
}

// IsSaturating reports whether the scheduler declares the uncongested
// full-cap property.
func IsSaturating(s Scheduler) bool {
	sat, ok := s.(Saturating)
	return ok && sat.Saturating()
}

// MaxMinFairShare computes the max-min fair allocation of total bandwidth
// among applications with individual caps: repeatedly split the remaining
// bandwidth equally among unsaturated applications, capping each at its
// own limit. It returns one value per input cap, aligned by index.
// This is the behaviour of a neutral server-side scheduler that serves all
// concurrent streams alike, and stands in for the production Intrepid/Mira
// I/O schedulers.
func MaxMinFairShare(caps []float64, total float64) []float64 {
	out := make([]float64, len(caps))
	MaxMinFairShareInto(out, make([]int, len(caps)), caps, total)
	return out
}

// MaxMinFairShareInto is MaxMinFairShare writing into out, with idx as
// index scratch; out and idx must have the length of caps. Engines that
// re-share bandwidth at every event use it to keep the hot path
// allocation-free.
//
//iosched:allocfree
func MaxMinFairShareInto(out []float64, idx []int, caps []float64, total float64) {
	n := len(caps)
	for i := range out {
		out[i] = 0
	}
	if n == 0 || total <= 0 {
		return
	}
	// Sort indices by cap ascending; saturate small caps first.
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c := cmp.Compare(caps[a], caps[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	remaining := total
	left := n
	for _, i := range idx {
		share := remaining / float64(left)
		bw := caps[i]
		if bw > share {
			bw = share
		}
		if bw < 0 {
			bw = 0
		}
		out[i] = bw
		remaining -= bw
		left--
	}
}

// weightedFairShareInto computes the weighted max-min fair allocation into
// out: repeatedly split the remaining bandwidth among unsaturated
// applications in proportion to their weights, capping each at its own
// limit. Equal weights reduce it to MaxMinFairShare. idx is index
// scratch; out and idx must have the length of caps.
//
//iosched:allocfree
func weightedFairShareInto(out []float64, idx []int, caps, weights []float64, total float64) {
	n := len(caps)
	for i := range out {
		out[i] = 0
	}
	if n == 0 || total <= 0 {
		return
	}
	if len(weights) != n {
		//iosched:allocfree-allow panic path: the Sprintf only runs on a caller contract violation
		panic(fmt.Sprintf("core: %d weights for %d caps", len(weights), n))
	}
	// Saturate in increasing order of cap/weight: once an application's
	// proportional share exceeds its cap it stays capped as the shares of
	// the others can only grow.
	for i := range idx {
		idx[i] = i
	}
	ratio := func(i int) float64 {
		if weights[i] <= 0 {
			return 0
		}
		return caps[i] / weights[i]
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c := cmp.Compare(ratio(a), ratio(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	remaining := total
	var weightLeft float64
	for _, i := range idx {
		weightLeft += weights[i]
	}
	for _, i := range idx {
		if weightLeft <= 0 {
			break
		}
		share := remaining * weights[i] / weightLeft
		bw := caps[i]
		if bw > share {
			bw = share
		}
		if bw < 0 {
			bw = 0
		}
		out[i] = bw
		remaining -= bw
		weightLeft -= weights[i]
	}
}

// ValidateGrants reports whether grants respect the capacity constraints
// for the given views; it returns a non-nil error describing the first
// violation. Used by tests and by the simulator in debug mode.
func ValidateGrants(grants []Grant, apps []*AppView, cap Capacity) error {
	byID := make(map[int]*AppView, len(apps))
	for _, v := range apps {
		byID[v.ID] = v
	}
	var sum float64
	for _, g := range grants {
		v, ok := byID[g.AppID]
		if !ok {
			return &GrantError{g, "grant for application not requesting I/O"}
		}
		if g.BW < 0 {
			return &GrantError{g, "negative bandwidth"}
		}
		if g.BW > float64(v.Nodes)*cap.NodeBW*(1+1e-9) {
			return &GrantError{g, "exceeds per-application cap β·b"}
		}
		sum += g.BW
	}
	if sum > cap.TotalBW*(1+1e-9) {
		return &GrantError{Grant{}, "total grants exceed capacity B"}
	}
	return nil
}

// GrantError describes an invalid bandwidth grant.
type GrantError struct {
	Grant  Grant
	Reason string
}

func (e *GrantError) Error() string {
	return fmt.Sprintf("core: invalid grant app %d: %s", e.Grant.AppID, e.Reason)
}
