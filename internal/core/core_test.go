package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func view(id, nodes int, opts ...func(*AppView)) *AppView {
	v := &AppView{ID: id, Nodes: nodes, Phase: Pending, RemVolume: 10}
	for _, o := range opts {
		o(v)
	}
	return v
}

func TestGreedyAllocateRespectsCaps(t *testing.T) {
	cap := Capacity{TotalBW: 10, NodeBW: 1}
	order := []*AppView{view(0, 4), view(1, 8), view(2, 3)}
	grants := GreedyAllocate(order, cap)
	// app0: min(4,10)=4; app1: min(8,6)=6; app2: 0 left.
	if len(grants) != 2 {
		t.Fatalf("got %d grants, want 2: %+v", len(grants), grants)
	}
	if grants[0].AppID != 0 || grants[0].BW != 4 {
		t.Errorf("grant 0 = %+v, want app 0 @ 4", grants[0])
	}
	if grants[1].AppID != 1 || grants[1].BW != 6 {
		t.Errorf("grant 1 = %+v, want app 1 @ 6", grants[1])
	}
	if err := ValidateGrants(grants, order, cap); err != nil {
		t.Error(err)
	}
}

func TestGreedyAllocateNoCongestion(t *testing.T) {
	cap := Capacity{TotalBW: 100, NodeBW: 1}
	order := []*AppView{view(0, 4), view(1, 8)}
	grants := GreedyAllocate(order, cap)
	if len(grants) != 2 || grants[0].BW != 4 || grants[1].BW != 8 {
		t.Errorf("all apps should run at card speed: %+v", grants)
	}
}

func TestMaxMinFairShare(t *testing.T) {
	cases := []struct {
		caps  []float64
		total float64
		want  []float64
	}{
		{[]float64{4, 4}, 10, []float64{4, 4}},
		{[]float64{10, 10}, 10, []float64{5, 5}},
		{[]float64{2, 10, 10}, 10, []float64{2, 4, 4}},
		{[]float64{1, 2, 3}, 100, []float64{1, 2, 3}},
		{nil, 10, nil},
		{[]float64{5}, 0, []float64{0}},
	}
	for i, c := range cases {
		got := MaxMinFairShare(c.caps, c.total)
		if len(got) != len(c.want) {
			t.Errorf("case %d: len %d, want %d", i, len(got), len(c.want))
			continue
		}
		for j := range got {
			if math.Abs(got[j]-c.want[j]) > 1e-9 {
				t.Errorf("case %d: got %v, want %v", i, got, c.want)
				break
			}
		}
	}
}

// Property: fair share never exceeds caps or total, and uses the full
// capacity when demand allows.
func TestMaxMinFairShareQuick(t *testing.T) {
	f := func(raw []uint8, totRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		caps := make([]float64, len(raw))
		var demand float64
		for i, r := range raw {
			caps[i] = float64(r%50) + 0.5
			demand += caps[i]
		}
		total := float64(totRaw%1000) + 1
		out := MaxMinFairShare(caps, total)
		var sum float64
		for i, v := range out {
			if v < -1e-9 || v > caps[i]+1e-9 {
				return false
			}
			sum += v
		}
		if sum > total+1e-6 {
			return false
		}
		want := math.Min(total, demand)
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRatioConventions(t *testing.T) {
	v := view(0, 4)
	if got := v.Ratio(10); got != 1 {
		t.Errorf("ratio before first instance = %g, want 1", got)
	}
	v.CreditedWork = 50
	v.CreditedIdeal = 60
	// At t=100: achieved = 0.5, optimal = 5/6, ratio = 0.6.
	if got := v.Ratio(100); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("ratio = %g, want 0.6", got)
	}
	// On the ideal trajectory the ratio caps at 1.
	if got := v.Ratio(60); got != 1 {
		t.Errorf("ratio on ideal trajectory = %g, want 1", got)
	}
}

func TestHeuristicOrdering(t *testing.T) {
	cap := Capacity{TotalBW: 4, NodeBW: 1}
	slow := view(0, 4, func(v *AppView) { v.CreditedWork = 10; v.CreditedIdeal = 20 })
	fast := view(1, 4, func(v *AppView) { v.CreditedWork = 40; v.CreditedIdeal = 41 })
	// At t=50: slow ratio = (10/50)/(10/20) = 0.4; fast = (40/50)/(40/41) ≈ 0.82.
	grants := MinDilation().Allocate(50, []*AppView{fast, slow}, cap)
	if grants[0].AppID != 0 {
		t.Errorf("MinDilation favored app %d, want 0 (most slowed)", grants[0].AppID)
	}
	// MaxSysEff favors low β·ρ̃: slow has 4*0.2=0.8, fast 4*0.8=3.2.
	grants = MaxSysEff().Allocate(50, []*AppView{fast, slow}, cap)
	if grants[0].AppID != 0 {
		t.Errorf("MaxSysEff favored app %d, want 0", grants[0].AppID)
	}
}

func TestMinMaxExtremes(t *testing.T) {
	cap := Capacity{TotalBW: 4, NodeBW: 1}
	// Construct views where MinDilation and MaxSysEff disagree:
	// a: small app badly slowed; b: big app mildly slowed but tiny β·ρ̃.
	a := view(0, 8, func(v *AppView) { v.CreditedWork = 10; v.CreditedIdeal = 12 })
	b := view(1, 1, func(v *AppView) { v.CreditedWork = 30; v.CreditedIdeal = 80 })
	now := 100.0
	// ratios: a = (0.1)/(10/12) = 0.12; b = (0.3)/(0.375) = 0.8
	// weighted: a = 8*0.1 = 0.8; b = 1*0.3 = 0.3
	md := MinMax(1).Allocate(now, []*AppView{a, b}, cap)
	wantMD := MinDilation().Allocate(now, []*AppView{a, b}, cap)
	if md[0].AppID != wantMD[0].AppID {
		t.Errorf("MinMax(1) != MinDilation: %v vs %v", md, wantMD)
	}
	mse := MinMax(0).Allocate(now, []*AppView{a, b}, cap)
	wantMSE := MaxSysEff().Allocate(now, []*AppView{a, b}, cap)
	if mse[0].AppID != wantMSE[0].AppID {
		t.Errorf("MinMax(0) != MaxSysEff: %v vs %v", mse, wantMSE)
	}
}

func TestMinMaxThresholdSwitch(t *testing.T) {
	cap := Capacity{TotalBW: 4, NodeBW: 1}
	a := view(0, 8, func(v *AppView) { v.CreditedWork = 10; v.CreditedIdeal = 12 }) // ratio 0.12, weighted 0.8
	b := view(1, 1, func(v *AppView) { v.CreditedWork = 30; v.CreditedIdeal = 80 }) // ratio 0.8, weighted 0.3
	now := 100.0
	// With γ=0.5, a's ratio 0.12 < 0.5 triggers dilation mode -> a first.
	grants := MinMax(0.5).Allocate(now, []*AppView{a, b}, cap)
	if grants[0].AppID != 0 {
		t.Errorf("MinMax(0.5) favored %d, want 0", grants[0].AppID)
	}
	// With γ=0.05 nobody is below threshold -> efficiency mode -> b first.
	grants = MinMax(0.05).Allocate(now, []*AppView{a, b}, cap)
	if grants[0].AppID != 1 {
		t.Errorf("MinMax(0.05) favored %d, want 1", grants[0].AppID)
	}

	// The switch is exact on the key-once path: with no ratio strictly
	// below γ the verdict is MaxSysEff's, with exactly one below it is
	// MinDilation's — under Priority as well.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		views := randomViews(rng, 2+rng.Intn(80))
		now = 300 + rng.Float64()*100
		ratios := make([]float64, len(views))
		for i, v := range views {
			ratios[i] = v.Ratio(now)
		}
		sort.Float64s(ratios)
		if ratios[0] == ratios[1] || ratios[0] <= 0 {
			continue // need exactly one strictly lowest ratio inside (0, 1]
		}
		cap = Capacity{TotalBW: 3 + rng.Float64()*40, NodeBW: 0.25}
		for _, prio := range []bool{false, true} {
			variant := func(h *Heuristic) Scheduler {
				if prio {
					return h.WithPriority()
				}
				return h
			}
			for _, c := range []struct {
				gamma float64
				same  *Heuristic
			}{
				{ratios[0], MaxSysEff()},                      // nobody strictly below γ
				{math.Nextafter(ratios[0], 2), MinDilation()}, // exactly one below γ
			} {
				got := variant(MinMax(c.gamma)).Allocate(now, views, cap)
				want := variant(c.same).Allocate(now, views, cap)
				if !sameVerdict(got, want) {
					t.Fatalf("trial %d: MinMax(%v) priority=%v with lowest ratio %v differs from %s:\n got %v\nwant %v",
						trial, c.gamma, prio, ratios[0], c.same.Name(), got, want)
				}
			}
		}
	}
}

func TestPriorityKeepsStartedFirst(t *testing.T) {
	cap := Capacity{TotalBW: 4, NodeBW: 1}
	started := view(0, 4, func(v *AppView) {
		v.Started = true
		v.CreditedWork = 40
		v.CreditedIdeal = 41
	})
	needy := view(1, 4, func(v *AppView) { v.CreditedWork = 10; v.CreditedIdeal = 20 })
	// Non-priority MinDilation favors the needy app...
	grants := MinDilation().Allocate(50, []*AppView{started, needy}, cap)
	if grants[0].AppID != 1 {
		t.Errorf("MinDilation favored %d, want 1", grants[0].AppID)
	}
	// ...but the Priority variant keeps the started transfer going.
	grants = MinDilation().WithPriority().Allocate(50, []*AppView{started, needy}, cap)
	if grants[0].AppID != 0 {
		t.Errorf("Priority-MinDilation favored %d, want 0", grants[0].AppID)
	}
}

func TestRoundRobinFavorsOldest(t *testing.T) {
	cap := Capacity{TotalBW: 4, NodeBW: 1}
	recent := view(0, 4, func(v *AppView) { v.LastIOEnd = 90 })
	stale := view(1, 4, func(v *AppView) { v.LastIOEnd = 10 })
	grants := RoundRobin().Allocate(100, []*AppView{recent, stale}, cap)
	if grants[0].AppID != 1 {
		t.Errorf("RoundRobin favored %d, want 1 (oldest last I/O)", grants[0].AppID)
	}
}

func TestExclusiveServesOne(t *testing.T) {
	cap := Capacity{TotalBW: 10, NodeBW: 1}
	apps := []*AppView{view(0, 4), view(1, 4)}
	grants := Exclusive{}.Allocate(0, apps, cap)
	if len(grants) != 1 {
		t.Errorf("exclusive granted %d apps, want 1", len(grants))
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Scheduler{
		"RoundRobin":           RoundRobin(),
		"MinDilation":          MinDilation(),
		"MaxSysEff":            MaxSysEff(),
		"MinMax-0.5":           MinMax(0.5),
		"Priority-MaxSysEff":   MaxSysEff().WithPriority(),
		"fair-share":           FairShare{},
		"exclusive-fcfs":       Exclusive{},
		"Priority-MinMax-0.25": MinMax(0.25).WithPriority(),
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{
		"RoundRobin", "Priority-RoundRobin", "MinDilation", "MaxSysEff",
		"MinMax-0.5", "Priority-MinMax-0.75", "fair-share", "exclusive-fcfs",
	} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"", "bogus", "MinMax-", "MinMax-x", "Priority-fair-share"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}

func TestMinMaxPanicsOutOfRange(t *testing.T) {
	for _, g := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MinMax(%g) did not panic", g)
				}
			}()
			MinMax(g)
		}()
	}
}

func TestAllHeuristics(t *testing.T) {
	hs := AllHeuristics()
	if len(hs) != 8 {
		t.Fatalf("got %d heuristics, want 8", len(hs))
	}
	names := make(map[string]bool)
	for _, h := range hs {
		names[h.Name()] = true
	}
	for _, want := range []string{"RoundRobin", "Priority-RoundRobin",
		"MinDilation", "Priority-MinDilation", "MaxSysEff",
		"Priority-MaxSysEff", "MinMax-0.5", "Priority-MinMax-0.5"} {
		if !names[want] {
			t.Errorf("missing heuristic %s", want)
		}
	}
}

// Property: every heuristic produces grants that validate, regardless of
// the application population.
func TestAllHeuristicsGrantsValidQuick(t *testing.T) {
	schedulers := AllHeuristics()
	schedulers = append(schedulers, FairShare{}, Exclusive{})
	f := func(seed int64, nApps uint8) bool {
		n := int(nApps%20) + 1
		apps := make([]*AppView, n)
		x := uint64(seed)
		next := func() float64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return float64(x%1000) / 1000
		}
		for i := range apps {
			apps[i] = &AppView{
				ID:            i,
				Nodes:         int(next()*100) + 1,
				Phase:         Pending,
				RemVolume:     next()*100 + 1,
				Started:       next() > 0.5,
				LastIOEnd:     next() * 50,
				CreditedWork:  next() * 100,
				CreditedIdeal: next()*100 + 1,
			}
		}
		cap := Capacity{TotalBW: next()*50 + 1, NodeBW: next() + 0.01}
		for _, s := range schedulers {
			grants := s.Allocate(100, apps, cap)
			if err := ValidateGrants(grants, apps, cap); err != nil {
				return false
			}
			// Inputs must not be reordered (callers rely on it).
			if !sort.SliceIsSorted(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
