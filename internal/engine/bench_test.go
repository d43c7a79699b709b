package engine

import (
	"testing"

	"repro/internal/core"
)

// transitionSet is the side effect every engine's Set shares: the
// kernel's view transition for the applied bandwidth.
type transitionSet struct {
	k     *Kernel
	views []core.AppView
}

func (s *transitionSet) Apply(slot int32, bw, now float64) { s.k.Transition(&s.views[slot], bw, now) }

// BenchmarkCandidatesGrant is grant application at the shape of a Figure 6
// panel B decision (docs/performance.md, "The policy pass"): 55 slots,
// about 33 candidates, a verdict of 3 or 4 grants (3.5 on average).
// Between verdicts one candidate leaves or one joins, in turn — the
// candidates are a window sliding over the slots — and the policy reads
// the ordered view, so every verdict grants the lowest IDs and shares most
// of them with the previous one. Each applied bandwidth passes through
// Kernel.Transition.
func BenchmarkCandidatesGrant(b *testing.B) {
	const slots, members = 55, 33
	k := New(core.MaxSysEff(), Observers{}, false)
	k.Cands.Reserve(slots)
	set := &transitionSet{k: &k, views: make([]core.AppView, slots)}
	for i := range set.views {
		set.views[i] = core.AppView{ID: i, Nodes: 1 + i%8, Phase: core.Pending}
	}
	for s := int32(0); s < members; s++ {
		k.Add(s, &set.views[s])
	}
	grants := make([]core.Grant, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if j := i / 2; i%2 == 0 {
			k.Remove(int32(j % slots))
		} else {
			in := int32((j + members) % slots)
			set.views[in].Phase, set.views[in].Started = core.Pending, false
			k.Add(in, &set.views[in])
		}
		views := k.Cands.Views()
		grants = grants[:0]
		for _, v := range views[:3+i%2] {
			grants = append(grants, core.Grant{AppID: v.ID, BW: float64(v.Nodes)})
		}
		k.Cands.Grant(set, grants, float64(i))
	}
}

// BenchmarkDecideSaturating is a population-scale instant on the
// Saturating path (docs/performance.md, "The Saturating instant"): 50k
// members whose demand fits the capacity, and per op one member leaves,
// one re-joins and the kernel decides. Demand is a product and the full
// grant answers only the re-joined member, so an op costs O(1), not
// O(members), and allocates nothing.
func BenchmarkDecideSaturating(b *testing.B) {
	const members = 50_000
	k := New(core.MaxSysEff(), Observers{}, false)
	k.Cands.Reserve(members)
	set := &transitionSet{k: &k, views: make([]core.AppView, members)}
	for i := range set.views {
		set.views[i] = core.AppView{ID: i, Nodes: 1 + i%8, Phase: core.Pending}
		k.Add(int32(i), &set.views[i])
	}
	cap := core.Capacity{TotalBW: 10 * members, NodeBW: 1}
	k.Decide(set, 0, cap, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(i % members)
		k.Remove(s)
		set.views[s].Phase, set.views[s].Started = core.Pending, false
		k.Add(s, &set.views[s])
		k.Decide(set, float64(i+1), cap, "")
	}
	if k.Decisions != 0 || k.SkippedSaturating != b.N+1 {
		b.Fatalf("counters %+v, want %d Saturating skips and no decision", k.Counters, b.N+1)
	}
}
