package engine

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// Candidates is the candidate set — the applications that want I/O — as
// every engine keeps it. An entry is a dense int32 slot the engine
// assigns (the simulator's application index, the daemon's session-arena
// slot) and carries the view the policy reads. Membership is an unordered
// slice with a slot-indexed position array, so joining and leaving are
// O(1) swaps. The ordered view the policy sees — ascending application
// ID, ties by slot — is built on its first read and from then on patched,
// not rebuilt (viewState). Membership changes go through Kernel.Add and
// Kernel.Remove, which bump the kernel's version.
type Candidates struct {
	pos     []int32         // slot → 1 + its index in members; 0 when absent
	view    []*core.AppView // slot → the view it joined with
	members []int32         // the slots, unordered

	// sorted/want are the ordered view: the member slots and their views,
	// ascending by (ID, slot); state says how they stand against members.
	sorted []int32
	want   []*core.AppView
	state  viewState

	// stamp/granted carry one verdict by slot without a per-decision map:
	// granted[slot] is valid while stamp[slot] equals round.
	round   uint64
	stamp   []uint64
	granted []float64
}

// viewState says how the ordered view stands against the membership. It
// follows membership only: a Kernel.Transition bump changes fields of the
// views, which the view holds by pointer.
type viewState uint8

const (
	// viewStale: membership changed behind the view; the next read
	// rebuilds it.
	viewStale viewState = iota
	// viewRead: current, and read since it was last built or patched; a
	// membership change patches it in place.
	viewRead
	// viewPatched: current, patched since the last read; a second change
	// before a read only marks it stale.
	viewPatched
)

// Reserve sizes the per-slot storage of an empty set for slots [0, n) at
// once, so an engine with a fixed population never grows it: no later
// add, rebuild or patch reallocates.
func (c *Candidates) Reserve(n int) {
	c.pos, c.view, c.members = make([]int32, n), make([]*core.AppView, n), make([]int32, 0, n)
}

// Len returns the number of candidates.
//
//iosched:allocfree
func (c *Candidates) Len() int { return len(c.members) }

// Has reports whether slot is a candidate.
//
//iosched:allocfree
func (c *Candidates) Has(slot int32) bool { return uint(slot) < uint(len(c.pos)) && c.pos[slot] != 0 }

// add makes slot, with view v, a candidate; it reports whether the
// membership changed. The per-slot storage grows to cover slot.
//
//iosched:allocfree
func (c *Candidates) add(slot int32, v *core.AppView) bool {
	for int(slot) >= len(c.pos) {
		c.pos = append(c.pos, 0)
		c.view = append(c.view, nil)
	}
	if c.pos[slot] != 0 {
		return false
	}
	c.members = append(c.members, slot)
	c.pos[slot] = int32(len(c.members))
	c.view[slot] = v
	c.changed(slot, true)
	return true
}

// remove withdraws slot; it reports whether the membership changed.
//
//iosched:allocfree
func (c *Candidates) remove(slot int32) bool {
	if !c.Has(slot) {
		return false
	}
	i, last := c.pos[slot]-1, len(c.members)-1
	moved := c.members[last]
	c.members[i] = moved
	c.pos[moved] = i + 1
	c.members = c.members[:last]
	c.pos[slot] = 0
	c.changed(slot, false)
	c.view[slot] = nil
	return true
}

// changed keeps the ordered view in step with one membership change. At
// most one O(candidates) patch runs per read, so a set that is never read
// (every decision point a skip) pays O(1) per membership change, and one
// read at every decision point never sorts again.
func (c *Candidates) changed(slot int32, add bool) {
	if c.state != viewRead {
		c.state = viewStale
		return
	}
	c.state = viewPatched
	at := c.search(c.view[slot].ID, slot)
	if add {
		c.sorted = slices.Insert(c.sorted, at, slot)
		c.want = slices.Insert(c.want, at, c.view[slot])
	} else {
		c.sorted = slices.Delete(c.sorted, at, at+1)
		c.want = slices.Delete(c.want, at, at+1)
	}
}

// search returns the position of (id, slot) in the ordered view: where it
// is, or where it belongs.
//
//iosched:allocfree
func (c *Candidates) search(id int, slot int32) int {
	lo, hi := 0, len(c.want)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if w := c.want[m].ID; w < id || w == id && c.sorted[m] < slot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Views returns the candidates' views ascending by ID. A policy must not
// depend on the order: every shipped policy orders by a total order of
// its own, ties by ID (core's TestVerdictIndependentOfInputOrder). A stale
// view is rebuilt with storage for every slot the set has seen.
//
//iosched:allocfree
func (c *Candidates) Views() []*core.AppView {
	if c.state == viewStale {
		if cap(c.want) < len(c.pos) {
			//iosched:allocfree-allow first read, or a grown slot space: sized for every slot, so patches reuse it
			c.sorted = make([]int32, 0, len(c.pos))
			//iosched:allocfree-allow as above
			c.want = make([]*core.AppView, 0, len(c.pos))
		}
		c.sorted = append(c.sorted[:0], c.members...)
		slices.SortFunc(c.sorted, func(a, b int32) int {
			return cmp.Or(cmp.Compare(c.view[a].ID, c.view[b].ID), cmp.Compare(a, b))
		})
		c.want = c.want[:0]
		for _, s := range c.sorted {
			c.want = append(c.want, c.view[s])
		}
	}
	c.state = viewRead
	return c.want
}

// Ordered returns the ordered view with its slots: views[i] is slots[i]'s.
//
//iosched:allocfree
func (c *Candidates) Ordered() (slots []int32, views []*core.AppView) {
	views = c.Views()
	return c.sorted, views
}

// Demand returns Σ β·b over the candidates, accumulated in membership
// order: the Saturating skip's margin makes any order land on the same
// side of its threshold, so no skip ever sorts.
//
//iosched:allocfree
func (c *Candidates) Demand(nodeBW float64) float64 {
	demand := 0.0
	for _, s := range c.members {
		demand += float64(c.view[s].Nodes) * nodeBW
	}
	return demand
}

// GrantFull applies min(β·b, limit) to every candidate, in membership
// order: the skip paths never read the ordered view.
//
//iosched:allocfree
func (c *Candidates) GrantFull(set Set, nodeBW, limit, now float64) {
	for _, s := range c.members {
		bw := float64(c.view[s].Nodes) * nodeBW
		if bw > limit {
			bw = limit
		}
		set.Apply(s, bw, now)
	}
}

// Grant applies a policy verdict: each grant stamps the slot whose view
// carries its ID, and every candidate the verdict omits receives zero.
// The slot numbered like the ID is tried first — where slots are IDs (the
// simulator on every generated workload) that resolves a grant in O(1) —
// and otherwise a binary search over the ordered view the policy just
// read finds it.
//
//iosched:allocfree
func (c *Candidates) Grant(set Set, grants []core.Grant, now float64) {
	views := c.Views()
	if len(c.stamp) < len(c.pos) {
		//iosched:allocfree-allow first grant, or a grown slot space: sized for every slot
		c.stamp, c.granted = make([]uint64, len(c.pos)), make([]float64, len(c.pos))
	}
	c.round++
	for _, g := range grants {
		s := int32(g.AppID)
		if int(s) != g.AppID || !c.Has(s) || c.view[s].ID != g.AppID {
			i := c.search(g.AppID, -1)
			if i == len(views) || views[i].ID != g.AppID {
				continue // no such candidate
			}
			s = c.sorted[i]
		}
		c.stamp[s], c.granted[s] = c.round, g.BW
	}
	for _, s := range c.members {
		bw := 0.0
		if c.stamp[s] == c.round {
			bw = c.granted[s]
		}
		set.Apply(s, bw, now)
	}
}
