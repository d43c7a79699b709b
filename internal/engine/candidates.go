package engine

import (
	"cmp"
	"math"
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

	// applied/watch remember what the slots hold, so a verdict applies only
	// what it changes. applied[slot] is the bandwidth the slot last
	// received, NaN while it is owed an answer (it joined, or was re-added
	// as a member, since). watch lists each slot whose applied value is
	// nonzero — the slots the last verdict gave bandwidth, plus those owed
	// an answer — exactly once; it may still hold slots that left since,
	// which the next verdict drops. Both are kept only while known: the
	// first Grant, and the first after a GrantFull, answer every candidate,
	// so the skip paths, which answer every candidate anyway, record
	// nothing.
	applied []float64
	watch   []int32
	known   bool
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
// add, rebuild, patch or grant reallocates.
func (c *Candidates) Reserve(n int) {
	idx := make([]int32, 3*n) // full slice expressions: a grown list reallocates
	c.pos, c.members, c.watch = idx[:n:n], idx[n:n:2*n], idx[2*n:2*n:3*n]
	c.view = make([]*core.AppView, n)
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
// membership changed. Either way the slot is owed an answer: the next
// verdict applies its bandwidth even when unchanged. The per-slot storage
// grows to cover slot.
//
//iosched:allocfree
func (c *Candidates) add(slot int32, v *core.AppView) bool {
	for int(slot) >= len(c.pos) {
		c.pos = append(c.pos, 0)
		c.view = append(c.view, nil)
		if c.known {
			c.applied = append(c.applied, 0)
		}
	}
	if c.known {
		if c.applied[slot] == 0 {
			c.watch = append(c.watch, slot)
		}
		c.applied[slot] = math.NaN()
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

// GrantFull applies min(β·b, limit) to every candidate, changed or not, in
// membership order: the skip paths never read the ordered view. It records
// nothing, so the next Grant answers every candidate too.
//
//iosched:allocfree
func (c *Candidates) GrantFull(set Set, nodeBW, limit, now float64) {
	for _, s := range c.watch {
		c.applied[s] = 0
	}
	c.watch, c.known = c.watch[:0], false
	for _, s := range c.members {
		bw := float64(c.view[s].Nodes) * nodeBW
		if bw > limit {
			bw = limit
		}
		set.Apply(s, bw, now)
	}
}

// Grant applies a policy verdict: each grant stamps the slot whose view
// carries its ID, and every candidate the verdict omits gets zero. The
// slot numbered like the ID is tried first — where slots are IDs (the
// simulator on every generated workload) that resolves a grant in O(1) —
// and otherwise a binary search over the ordered view the policy just
// read finds it. A granted slot not yet watched joins the watch list, and
// one walk over that list applies what changes — a zero to each watched
// slot the verdict omits, a grant whose value differs from what its slot
// holds — and every answer owed, in watch order: O(grants + previously
// granted + joined), not O(candidates).
//
// A skipped apply changes nothing. A slot is skipped only when it is a
// candidate, is owed no answer and already holds the verdict's value. It
// received that value through Apply, which ran Kernel.Transition, and an
// engine changes a candidate's Phase or Started only together with add (a
// join, the daemon's re-request), which owes the slot an answer. So the
// view is already in the state Transition leaves for that value, and
// Transition would bump no Version: the memo and every result are as if
// Apply had run. The engine's own effects of the value stand as well: the
// simulator's transferring set, the daemon's pushedValid && bw ==
// pushedBW, under which it would have enqueued nothing.
//
//iosched:allocfree
func (c *Candidates) Grant(set Set, grants []core.Grant, now float64) {
	views := c.Views()
	if n := len(c.pos); len(c.stamp) < n {
		//iosched:allocfree-allow first grant, or a grown slot space: sized for every slot
		f := make([]float64, 2*n)
		copy(f[n:], c.applied)
		//iosched:allocfree-allow as above
		c.stamp, c.granted, c.applied = make([]uint64, n), f[:n:n], f[n:]
	}
	if !c.known {
		// Nothing recorded: every candidate is owed an answer.
		for _, s := range c.members {
			c.applied[s] = math.NaN()
		}
		c.watch, c.known = append(c.watch[:0], c.members...), true
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
		if c.stamp[s] != c.round && c.applied[s] == 0 {
			c.watch = append(c.watch, s) // granted, and not yet watched
		}
		c.stamp[s], c.granted[s] = c.round, g.BW
	}
	kept := 0
	for _, s := range c.watch {
		bw := 0.0
		if c.stamp[s] == c.round {
			bw = c.granted[s]
		} else if !c.Has(s) {
			c.applied[s] = 0 // left since
			continue
		}
		if c.applied[s] != bw { // an owed NaN equals nothing
			set.Apply(s, bw, now)
			c.applied[s] = bw
		}
		if bw != 0 {
			c.watch[kept] = s
			kept++
		}
	}
	c.watch = c.watch[:kept]
}
