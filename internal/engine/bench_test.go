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
	k := New(core.MaxSysEff(), nil, false)
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
