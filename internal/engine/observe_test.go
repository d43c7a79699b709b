package engine

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// holdings reads the bandwidth each slot holds from the fake engine's own
// record (engine.Holdings), the way the simulator and the daemon read
// their arenas.
type holdings fakeSet

func (h *holdings) Held(slot int32) float64 { return h.bw[h.views[slot].ID] }

// handPoint is the point Observe must build: the candidates ascending by
// ID, each with what the fake says it holds.
func handPoint(k *Kernel, set *fakeSet, now float64, cap core.Capacity, level float64) telemetry.Point {
	var cands []*core.AppView
	for slot, v := range set.views {
		if k.Cands.Has(int32(slot)) {
			cands = append(cands, v)
		}
	}
	slices.SortFunc(cands, func(a, b *core.AppView) int { return a.ID - b.ID })
	var b telemetry.PointBuilder
	for _, v := range cands {
		b.Add(now, v, set.bw[v.ID], cap.NodeBW)
	}
	return b.Finish(now, cap.TotalBW, level)
}

// TestObserveReadsHeldBandwidth pins what the capture site reads: the
// bandwidth the engine holds for each candidate, after every kind of
// decision point. The candidate set's own record cannot stand in for it:
// it holds nothing after a full grant and NaN for a slot owed an answer.
// Every point must also cost no allocation with a bounded probe and a
// health monitor attached.
func TestObserveReadsHeldBandwidth(t *testing.T) {
	probe := &telemetry.Probe{MaxPoints: 4}
	k := New(core.RoundRobin(), Observers{Telemetry: probe, Health: health.New(health.Config{})}, true)
	set := &fakeSet{k: &k, bw: map[int]float64{}}
	h := (*holdings)(set)
	now := 0.0
	step := func(name string, want func() bool) {
		t.Helper()
		now++
		k.Decide(set, now, capB10, "")
		if !want() {
			t.Fatalf("%s: counters %+v, not the decision point the step needs", name, k.Counters)
		}
		k.Observe(h, now, capB10, 2.5)
		pt := handPoint(&k, set, now, capB10, 2.5)
		if got := k.Point(h, now, capB10, 2.5); got != pt {
			t.Errorf("%s: Point %+v, want %+v", name, got, pt)
		}
		if got, ok := probe.Last(); !ok || got != pt {
			t.Errorf("%s: probe recorded %+v, want %+v", name, got, pt)
		}
		if n := testing.AllocsPerRun(20, func() { k.Observe(h, now, capB10, 2.5) }); n != 0 {
			t.Errorf("%s: Observe allocates %g times per call", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { k.Point(h, now, capB10, 2.5) }); n != 0 {
			t.Errorf("%s: Point allocates %g times per call", name, n)
		}
	}

	set.add(1, 8, 0)
	step("single full grant", func() bool { return k.SkippedSingleFullGrant == 1 && set.bw[1] == 8 })
	// Demand 8 + 1 fits B: a full grant at the b and cap of the single
	// one, which answers only the slot owed an answer (app 2).
	set.add(2, 1, 1)
	step("saturating full grant", func() bool { return k.SkippedSaturating == 1 && set.bw[2] == 1 })
	step("memo skip after a full grant", func() bool { return k.SkippedMemo == 1 })
	// Demand 17 exceeds B: RoundRobin serves the oldest first, 8 + 1 + 1.
	set.add(3, 8, 2)
	step("policy grant", func() bool { return k.Decisions == 1 && set.bw[3] == 1 })
	// App 3's first grant flipped Started, so the next point re-decides;
	// the one after it is a memo skip.
	step("re-decision", func() bool { return k.Decisions == 2 })
	step("memo skip after a grant", func() bool { return k.SkippedMemo == 2 })
}
