package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestViewCacheMatchesRebuild drives the simulator's shape — a fixed
// arena, one slot per application, IDs descending with the slot — through
// random interleavings of add, remove, view transitions and Views reads
// (zero, one and several membership changes between reads), and checks
// every read against a from-scratch rebuild: ID-ordered and
// pointer-identical to the owners' views. Alongside it pins the state
// machine: a Transition-only version bump leaves the view alone, the first
// membership change after a read patches, a second one before the next
// read only marks it stale.
func TestViewCacheMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		k := New(core.MaxSysEff(), Observers{}, false)
		k.Cands.Reserve(n)
		views := make([]core.AppView, n)
		for i := range views {
			// Descending IDs: slot order is not ID order.
			views[i] = core.AppView{ID: 1000 - i, Nodes: 1, Phase: core.Pending}
		}
		changes := -1 // membership changes since the last read; -1: never read
		for step := 0; step < 400; step++ {
			slot := int32(rng.Intn(n))
			switch op := rng.Intn(10); {
			case op < 3:
				before := k.Cands.state
				if k.Cands.Has(slot) {
					k.Remove(slot)
				} else {
					k.Add(slot, &views[slot])
				}
				if changes >= 0 {
					changes++
				}
				want := viewStale
				if changes == 1 {
					want = viewPatched
				}
				if k.Cands.state != want {
					t.Fatalf("trial %d step %d: state %d -> %d after change %d since the last read, want %d",
						trial, step, before, k.Cands.state, changes, want)
				}
			case op < 5:
				// What applying a verdict does: view fields change and the
				// kernel's version moves, membership does not.
				before, ver := k.Cands.state, k.Version
				v := &views[slot]
				v.Phase, v.Started = core.Pending, false
				k.Transition(v, 1, float64(step)) // a first grant
				if k.Version == ver {
					t.Fatalf("trial %d step %d: transition did not bump the version", trial, step)
				}
				if k.Cands.state != before {
					t.Fatalf("trial %d step %d: a transition moved the view state %d -> %d", trial, step, before, k.Cands.state)
				}
			default:
				var want []int32
				for i := n - 1; i >= 0; i-- { // ascending ID
					if k.Cands.Has(int32(i)) {
						want = append(want, int32(i))
					}
				}
				slots, got := k.Cands.Ordered()
				if len(got) != len(want) || len(slots) != len(want) {
					t.Fatalf("trial %d step %d: %d views, %d slots, want %d", trial, step, len(got), len(slots), len(want))
				}
				for j, i := range want {
					if got[j] != &views[i] || slots[j] != i {
						t.Fatalf("trial %d step %d (%d changes since the last read): position %d holds slot %d, want %d",
							trial, step, changes, j, slots[j], i)
					}
				}
				if k.Cands.state != viewRead {
					t.Fatalf("trial %d step %d: state %d after a read", trial, step, k.Cands.state)
				}
				changes = 0
			}
		}
	}
}

// candHarness drives a Candidates the way the daemon does: slots come
// from an arena with a free list, and a session joins (a slot is
// allocated), requests (add, also while already a member), completes
// (remove) and leaves (remove, the slot is freed for reuse). It is also
// the Set the grants are applied through, and it checks every read and
// every verdict against a model of what each slot holds: a verdict must
// deliver every changed bandwidth and every owed answer exactly once, and
// nothing else. A full grant at the (b, cap) of the previous verdict, when
// that was a full grant too, answers exactly the owed members; any other
// full grant, and the first policy verdict after one, answers every member.
type candHarness struct {
	tb     testing.TB
	c      Candidates
	arena  []*core.AppView // slot → the owner's view; nil when free
	free   []int32
	member []bool // the model's membership, by slot
	joins  int

	// held is the bandwidth each member last received; owed marks the
	// members that requested since their last answer (and every member
	// that joined since), which the next verdict must answer even when
	// unchanged.
	held []float64
	owed []bool
	// got is what the current verdict applied, by slot; NaN when nothing.
	got []float64
	// full says the last verdict was a full grant at (fullBW, fullLimit).
	full              bool
	fullBW, fullLimit float64
}

func (h *candHarness) Apply(slot int32, bw, _ float64) {
	if !h.member[slot] || !math.IsNaN(h.got[slot]) {
		h.tb.Fatalf("verdict applied to slot %d: member %v, applied before %g", slot, h.member[slot], h.got[slot])
	}
	h.got[slot] = bw
}

// pick maps an operand to an occupied slot, or -1 when there is none.
func (h *candHarness) pick(arg byte) int32 {
	for i := range h.arena {
		s := (int(arg) + i) % len(h.arena)
		if h.arena[s] != nil {
			return int32(s)
		}
	}
	return -1
}

// step runs one operation. IDs are unique among the occupied slots (the
// registry rejects a duplicate app ID) and scrambled against slot order;
// a quarter of them equal their slot, as in the simulator, so Grant's
// slot-first lookup hits as well as misses.
func (h *candHarness) step(op, arg byte) {
	switch op % 6 {
	case 0: // join
		var slot int32
		if n := len(h.free); n > 0 {
			slot, h.free = h.free[n-1], h.free[:n-1]
		} else {
			slot = int32(len(h.arena))
			h.arena = append(h.arena, nil)
			h.member = append(h.member, false)
			h.held = append(h.held, 0)
			h.owed = append(h.owed, false)
			h.got = append(h.got, 0)
		}
		h.joins++
		id := int(arg)<<32 | h.joins // never a slot number
		switch arg % 4 {
		case 0:
			id = int(slot)
		case 1:
			id = -h.joins
		}
		h.arena[slot] = &core.AppView{ID: id, Nodes: 1 + int(arg%8), Phase: core.Pending}
	case 1: // request: joins the set, or re-requests as a member
		if s := h.pick(arg); s >= 0 {
			if h.c.add(s, h.arena[s]) == h.member[s] {
				h.tb.Fatalf("add(%d) changed membership %v: a member is re-added without a membership change", s, h.member[s])
			}
			h.member[s], h.owed[s] = true, true
		}
	case 2, 3: // complete; leave also releases the slot
		if s := h.pick(arg); s >= 0 {
			if h.c.remove(s) != h.member[s] {
				h.tb.Fatalf("remove(%d) disagrees with membership %v", s, h.member[s])
			}
			h.member[s] = false
			if op%6 == 3 {
				h.arena[s] = nil
				h.free = append(h.free, s)
			}
		}
	case 4:
		h.checkViews()
	case 5:
		if arg%4 == 3 {
			h.checkGrantFull(arg)
		} else {
			h.checkGrant(arg)
		}
	}
	h.checkDemand()
}

// checkDemand requires Demand to be the members' exact node count times b.
func (h *candHarness) checkDemand() {
	nodes := 0
	for s, m := range h.member {
		if m {
			nodes += h.arena[s].Nodes
		}
	}
	const nodeBW = 0.0125
	if d := h.c.Demand(nodeBW); d != float64(nodes)*nodeBW {
		h.tb.Fatalf("Demand %g, want %d nodes × %g", d, nodes, nodeBW)
	}
}

// checkViews compares a read against an ID-sorted rebuild from the model,
// and checks the record the last verdict left: the watch list holds each
// slot at most once, exactly the slots marked listed; after a policy
// verdict those are the slots recorded as holding bandwidth or owed an
// answer, after a full grant the owed ones.
func (h *candHarness) checkViews() {
	var want []int32
	for s, m := range h.member {
		if m {
			want = append(want, int32(s))
		}
	}
	slices.SortFunc(want, func(a, b int32) int { return cmp.Compare(h.arena[a].ID, h.arena[b].ID) })
	if h.c.Len() != len(want) {
		h.tb.Fatalf("Len %d, want %d", h.c.Len(), len(want))
	}
	slots, views := h.c.Ordered()
	if !slices.Equal(slots, want) || len(views) != len(want) {
		h.tb.Fatalf("ordered slots %v, want %v", slots, want)
	}
	for i, s := range want {
		if views[i] != h.arena[s] {
			h.tb.Fatalf("position %d: view of ID %d, want the owner's view of slot %d (ID %d)", i, views[i].ID, s, h.arena[s].ID)
		}
	}
	seen := make(map[int32]bool)
	for _, s := range h.c.watch {
		if seen[s] || !h.c.listed[s] {
			h.tb.Fatalf("watch %v: slot %d repeated or not marked listed", h.c.watch, s)
		}
		seen[s] = true
	}
	for s, l := range h.c.listed {
		if l != seen[int32(s)] {
			h.tb.Fatalf("slot %d marked listed %v, on watch %v (watch %v)", s, l, seen[int32(s)], h.c.watch)
		}
	}
	for s := range h.member {
		a := 0.0
		if s < len(h.c.applied) {
			a = h.c.applied[s]
		}
		switch h.c.rec {
		case recGrant:
			if (a != 0) != seen[int32(s)] {
				h.tb.Fatalf("slot %d recorded as holding %g, on watch %v", s, a, seen[int32(s)])
			}
			if h.member[s] && !h.owed[s] && a != h.held[s] {
				h.tb.Fatalf("slot %d recorded as holding %g, model %g", s, a, h.held[s])
			}
		case recFull:
			if a != 0 {
				h.tb.Fatalf("slot %d recorded as holding %g after a full grant", s, a)
			}
			if h.member[s] && h.owed[s] != seen[int32(s)] {
				h.tb.Fatalf("member slot %d owed %v, on watch %v after a full grant", s, h.owed[s], seen[int32(s)])
			}
		default:
			if len(seen) != 0 {
				h.tb.Fatalf("watch %v before any verdict", h.c.watch)
			}
		}
	}
}

// checkGrant stamps a verdict — a subset of the candidates in scrambled
// order, some at the value they hold, some changed, some granted an
// explicit zero, plus grants to IDs that are no candidate's, among them
// slot numbers of occupied slots — walks it, and checks that every grant
// landed on the slot whose view carries its ID and every omitted
// candidate holds zero.
func (h *candHarness) checkGrant(arg byte) {
	h.c.Views() // the policy reads before it grants
	var grants []core.Grant
	want := make(map[int32]float64)
	for s, m := range h.member {
		if !m {
			continue
		}
		want[int32(s)] = 0
		switch (s + int(arg)) % 4 {
		case 1, 2:
			bw := float64(1 + (7*s+int(arg))%3)
			grants = append(grants, core.Grant{AppID: h.arena[s].ID, BW: bw})
			want[int32(s)] = bw
		case 3:
			grants = append(grants, core.Grant{AppID: h.arena[s].ID, BW: 0})
		}
	}
	ids := map[int]bool{}
	for _, v := range h.arena {
		if v != nil {
			ids[v.ID] = true
		}
	}
	for s := range h.arena {
		if !ids[s] {
			grants = append(grants, core.Grant{AppID: s, BW: 99})
		}
	}
	grants = append(grants, core.Grant{AppID: 1 << 40, BW: 99})
	rand.New(rand.NewSource(int64(arg))).Shuffle(len(grants), func(i, j int) { grants[i], grants[j] = grants[j], grants[i] })
	if h.full {
		h.oweAll() // the first policy verdict after a full grant answers every member
	}
	h.full = false
	h.expect(want, func() { h.c.Grant(h, grants, 0) })
}

// checkGrantFull applies min(β·b, limit) at one of four (b, limit)
// pairs. At the pair of the previous verdict, when that was a full grant
// too, it must answer exactly the owed members; otherwise every member.
func (h *candHarness) checkGrantFull(arg byte) {
	nodeBW, limit := float64(1+(arg>>3)%2), float64(1+arg%8)
	want := make(map[int32]float64)
	for s, m := range h.member {
		if m {
			want[int32(s)] = min(float64(h.arena[s].Nodes)*nodeBW, limit)
		}
	}
	if !h.full || nodeBW != h.fullBW || limit != h.fullLimit {
		h.oweAll()
	}
	h.full, h.fullBW, h.fullLimit = true, nodeBW, limit
	h.expect(want, func() { h.c.GrantFull(h, nodeBW, limit, 0) })
}

// oweAll marks every member owed an answer.
func (h *candHarness) oweAll() {
	for s, m := range h.member {
		h.owed[s] = h.owed[s] || m
	}
}

// expect runs a verdict and checks it against the model: a member is
// applied its value exactly when it is owed an answer or its value
// changed, a non-member never; then every member holds its value.
func (h *candHarness) expect(want map[int32]float64, verdict func()) {
	for s := range h.got {
		h.got[s] = math.NaN()
	}
	verdict()
	for s, got := range h.got {
		bw, ok := want[int32(s)]
		switch {
		case !ok:
			if !math.IsNaN(got) {
				h.tb.Fatalf("non-member slot %d received %g", s, got)
			}
		case h.owed[s] || h.held[s] != bw:
			if got != bw {
				h.tb.Fatalf("slot %d (owed %v, held %g) received %g, want %g", s, h.owed[s], h.held[s], got, bw)
			}
		case !math.IsNaN(got):
			h.tb.Fatalf("slot %d holds %g and was applied %g again", s, bw, got)
		}
		if ok {
			h.held[s], h.owed[s] = bw, false
		}
	}
}

// runOps interprets b as (operation, operand) byte pairs, then reads and
// grants once more so every sequence ends checked.
func runOps(t *testing.T, b []byte) {
	h := &candHarness{tb: t}
	for i := 0; i+1 < len(b); i += 2 {
		h.step(b[i], b[i+1])
	}
	h.checkViews()
	h.checkGrant(0)
	h.checkViews()
}

// TestCandidatesServerShaped drives random daemon histories: slots
// allocated and freed with reuse, interleaved join, request (also
// re-request), complete and leave, reads, and verdicts applied in full
// and as a policy's grants.
func TestCandidatesServerShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := make([]byte, 2*rng.Intn(300))
		rng.Read(b)
		runOps(t, b)
	}
}

// FuzzCandidates is TestCandidatesServerShaped over fuzzer-chosen
// operation sequences.
func FuzzCandidates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 1, 4, 0, 5, 1})
	f.Add([]byte{0, 9, 1, 0, 4, 0, 3, 0, 0, 3, 1, 0, 5, 2, 2, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 5, 3, 5, 3, 1, 0, 5, 3, 5, 3, 5, 0})
	f.Fuzz(runOps)
}

// TestCandidatesSteadyStateAllocationFree: once storage has grown to the
// peak population, membership changes, reads — patched or rebuilt — and
// grants allocate nothing.
func TestCandidatesSteadyStateAllocationFree(t *testing.T) {
	h := &candHarness{tb: t}
	for i := 0; i < 16; i++ {
		h.step(0, byte(37*i)) // join
		h.step(1, byte(i))    // request
	}
	grants := []core.Grant{{AppID: h.arena[3].ID, BW: 1}, {AppID: h.arena[9].ID, BW: 2}}
	h.c.Views()
	cases := []struct {
		name string
		run  func()
	}{
		{"patch", func() { h.c.remove(5); h.c.Views(); h.c.add(5, h.arena[5]); h.c.Views() }},
		{"rebuild", func() { h.c.remove(5); h.c.remove(6); h.c.add(6, h.arena[6]); h.c.add(5, h.arena[5]); h.c.Views() }},
		{"grant", func() { h.c.Grant(nopSet{}, grants, 0) }},
		{"grant-full", func() { h.c.GrantFull(nopSet{}, 1, 4, 0) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(100, c.run); avg != 0 {
			t.Errorf("%s: %.1f allocations, want 0", c.name, avg)
		}
	}
}

type nopSet struct{}

func (nopSet) Apply(int32, float64, float64) {}

// TestSkipsNeverReadTheView: a decision point resolved by a skip, with
// tracing off, never builds the ordered view, so a run whose every point
// skips (the 100k-application Saturating regime) pays O(1) per membership
// change and never sorts.
func TestSkipsNeverReadTheView(t *testing.T) {
	k, set := newFake(core.MaxSysEff(), nil)
	set.add(1, 2, 0)
	k.Decide(set, 0, capB10, "") // single
	set.add(2, 2, 0)
	set.add(3, 2, 0)
	k.Decide(set, 1, capB10, "") // saturating: 6 of 10
	k.Remove(1)
	k.Decide(set, 2, capB10, "")
	if k.Decisions != 0 || k.SkippedSingleFullGrant != 1 || k.SkippedSaturating != 2 {
		t.Fatalf("counters %+v, want one single and two saturating skips", k.Counters)
	}
	if k.Cands.want != nil || k.Cands.sorted != nil || k.Cands.state != viewStale {
		t.Errorf("a skip read the view: %d views, state %d", len(k.Cands.want), k.Cands.state)
	}
	if set.bw[1] != 2 || set.bw[2] != 2 || set.bw[3] != 2 {
		t.Errorf("grants %v, want 2 each", set.bw)
	}
}

// TestDuplicateIDsOrderBySlot: two candidates may carry one ID — the
// daemon registers a reconnecting application's new session before the
// old one's leave round removes it — and the view orders them by slot,
// so a patch removes exactly the slot that left.
func TestDuplicateIDsOrderBySlot(t *testing.T) {
	var k Kernel
	a, b, c := &core.AppView{ID: 5}, &core.AppView{ID: 5}, &core.AppView{ID: 9}
	k.Add(2, c)
	k.Add(1, a)
	k.Add(0, b)
	if slots, _ := k.Cands.Ordered(); !slices.Equal(slots, []int32{0, 1, 2}) {
		t.Fatalf("rebuilt order %v, want [0 1 2]", slots)
	}
	k.Remove(1) // patched
	if slots, views := k.Cands.Ordered(); !slices.Equal(slots, []int32{0, 2}) || views[0] != b {
		t.Fatalf("after removing slot 1: %v, want [0 2] with slot 0's view first", slots)
	}
	k.Add(1, a) // patched
	k.Remove(0) // stale: rebuilt below
	if slots, views := k.Cands.Ordered(); !slices.Equal(slots, []int32{1, 2}) || views[0] != a {
		t.Fatalf("after re-adding slot 1 and removing slot 0: %v, want [1 2]", slots)
	}
}
