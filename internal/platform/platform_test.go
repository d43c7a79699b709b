package platform

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPeakAppBW(t *testing.T) {
	p := &Platform{Name: "t", Nodes: 100, NodeBW: 1, TotalBW: 10}
	cases := []struct {
		nodes int
		want  float64
	}{
		{1, 1}, {5, 5}, {10, 10}, {11, 10}, {100, 10},
	}
	for _, c := range cases {
		if got := p.PeakAppBW(c.nodes); got != c.want {
			t.Errorf("PeakAppBW(%d) = %g, want %g", c.nodes, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Platform{Name: "g", Nodes: 10, NodeBW: 1, TotalBW: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid platform rejected: %v", err)
	}
	bad := []*Platform{
		nil,
		{Name: "n", Nodes: 0, NodeBW: 1, TotalBW: 5},
		{Name: "b", Nodes: 10, NodeBW: 0, TotalBW: 5},
		{Name: "B", Nodes: 10, NodeBW: 1, TotalBW: 0},
		{Name: "bb", Nodes: 10, NodeBW: 1, TotalBW: 5, BurstBuffer: &BurstBuffer{Capacity: 0, IngestBW: 1}},
		{Name: "bb2", Nodes: 10, NodeBW: 1, TotalBW: 5, BurstBuffer: &BurstBuffer{Capacity: 1, IngestBW: 0}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad platform %d accepted", i)
		}
	}
}

func TestPresets(t *testing.T) {
	for name, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("preset key %q has name %q", name, p.Name)
		}
		if p.BurstBuffer == nil {
			t.Errorf("preset %s should model burst buffers", name)
		}
		if p.BurstBuffer.IngestBW <= p.TotalBW {
			t.Errorf("preset %s burst buffer ingest %g should exceed B %g",
				name, p.BurstBuffer.IngestBW, p.TotalBW)
		}
	}
}

func TestWithWithoutBB(t *testing.T) {
	p := Intrepid()
	q := p.WithoutBB()
	if q.BurstBuffer != nil {
		t.Error("WithoutBB kept the buffer")
	}
	if p.BurstBuffer == nil {
		t.Error("WithoutBB mutated the original")
	}
	r := q.WithBB(BurstBuffer{Capacity: 1, IngestBW: 2})
	if r.BurstBuffer == nil || r.BurstBuffer.Capacity != 1 {
		t.Error("WithBB did not attach the buffer")
	}
	if q.BurstBuffer != nil {
		t.Error("WithBB mutated the receiver")
	}
}

func TestAppAccounting(t *testing.T) {
	p := &Platform{Name: "t", Nodes: 100, NodeBW: 1, TotalBW: 10}
	a := NewPeriodic(1, 20, 100, 50, 3)
	if got := a.TotalWork(); got != 300 {
		t.Errorf("TotalWork = %g, want 300", got)
	}
	if got := a.TotalVolume(); got != 150 {
		t.Errorf("TotalVolume = %g, want 150", got)
	}
	// cap = min(20, 10) = 10 -> time_io = 5 per instance.
	if got := a.IOTime(p, 0); got != 5 {
		t.Errorf("IOTime = %g, want 5", got)
	}
	if got := a.DedicatedTime(p); got != 315 {
		t.Errorf("DedicatedTime = %g, want 315", got)
	}
	if got, want := a.OptimalEfficiency(p), 300.0/315; math.Abs(got-want) > 1e-12 {
		t.Errorf("OptimalEfficiency = %g, want %g", got, want)
	}
	if !a.IsPeriodic() {
		t.Error("NewPeriodic app not periodic")
	}
	a.Instances[2].Work = 1
	if a.IsPeriodic() {
		t.Error("modified app still periodic")
	}
}

func TestAppValidate(t *testing.T) {
	good := NewPeriodic(0, 4, 10, 5, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
	bad := []*App{
		nil,
		{ID: 1, Nodes: 0, Instances: []Instance{{Work: 1}}},
		{ID: 1, Nodes: 4, Release: -1, Instances: []Instance{{Work: 1}}},
		{ID: 1, Nodes: 4},
		{ID: 1, Nodes: 4, Instances: []Instance{{Work: -1, Volume: 1}}},
		{ID: 1, Nodes: 4, Instances: []Instance{{Work: 1, Volume: -1}}},
		{ID: 1, Nodes: 4, Instances: []Instance{{}}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad app %d accepted", i)
		}
	}
}

func TestValidateApps(t *testing.T) {
	p := &Platform{Name: "t", Nodes: 100, NodeBW: 1, TotalBW: 10}
	a := NewPeriodic(0, 60, 10, 5, 2)
	b := NewPeriodic(1, 40, 10, 5, 2)
	if err := ValidateApps(p, []*App{a, b}); err != nil {
		t.Errorf("fitting apps rejected: %v", err)
	}
	c := NewPeriodic(2, 10, 10, 5, 2)
	if err := ValidateApps(p, []*App{a, b, c}); err == nil {
		t.Error("oversubscription accepted")
	}
	dup := NewPeriodic(0, 1, 10, 5, 2)
	if err := ValidateApps(p, []*App{a, dup}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if err := ValidateApps(p, nil); err == nil {
		t.Error("empty app list accepted")
	}
}

// TestValidateAppsUniqueIDs covers both uniqueness proofs: strictly
// ascending IDs need no set, and the set built from the first app that
// breaks the order must still see every earlier ID.
func TestValidateAppsUniqueIDs(t *testing.T) {
	p := &Platform{Name: "t", Nodes: 100, NodeBW: 1, TotalBW: 10}
	cases := []struct {
		name string
		ids  []int
		dup  bool
	}{
		{"ascending contiguous", []int{0, 1, 2, 3}, false},
		{"ascending with gaps", []int{3, 10, 11, 500}, false},
		{"descending", []int{9, 7, 4, 1}, false},
		{"shuffled", []int{5, 2, 8, 1, 9}, false},
		{"ascending with repeat", []int{1, 2, 2, 3}, true},
		{"descending with repeat", []int{9, 7, 7, 1}, true},
		{"shuffled, repeats the ascending prefix", []int{2, 5, 8, 1, 5}, true},
		{"shuffled, repeats after the break", []int{2, 5, 1, 9, 1}, true},
	}
	for _, c := range cases {
		var apps []*App
		for _, id := range c.ids {
			apps = append(apps, NewPeriodic(id, 1, 10, 5, 1))
		}
		err := ValidateApps(p, apps)
		if c.dup && (err == nil || !strings.Contains(err.Error(), "duplicate app ID")) {
			t.Errorf("%s %v: err = %v, want a duplicate-ID error", c.name, c.ids, err)
		}
		if !c.dup && err != nil {
			t.Errorf("%s %v: rejected: %v", c.name, c.ids, err)
		}
	}
}

func TestCloneWithID(t *testing.T) {
	a := NewPeriodic(0, 4, 10, 5, 2)
	c := a.CloneWithID(9)
	if c.ID != 9 || c.Nodes != a.Nodes {
		t.Errorf("clone fields wrong: %+v", c)
	}
	c.Instances[0].Work = 99
	if a.Instances[0].Work == 99 {
		t.Error("clone shares instance storage with original")
	}
}

// Property: PeakAppBW is monotone in nodes and never exceeds B.
func TestPeakAppBWQuick(t *testing.T) {
	p := &Platform{Name: "t", Nodes: 1 << 20, NodeBW: 0.25, TotalBW: 100}
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		bx, by := p.PeakAppBW(x), p.PeakAppBW(y)
		return bx <= by && by <= p.TotalBW && bx > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
