package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func perf(nodes int, release, finish, work, ideal float64) AppPerf {
	return AppPerf{Nodes: nodes, Release: release, Finish: finish,
		Work: work, IdealTime: ideal}
}

func TestAppPerfBasics(t *testing.T) {
	a := perf(10, 0, 200, 100, 150)
	if got := a.AchievedEff(); got != 0.5 {
		t.Errorf("achieved = %g, want 0.5", got)
	}
	if got, want := a.OptimalEff(), 100.0/150; math.Abs(got-want) > 1e-12 {
		t.Errorf("optimal = %g, want %g", got, want)
	}
	if got, want := a.Dilation(), (100.0/150)/0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("dilation = %g, want %g", got, want)
	}
}

func TestSummarize(t *testing.T) {
	apps := []AppPerf{
		perf(50, 0, 100, 80, 100),  // achieved 0.8, optimal 0.8 -> dilation 1
		perf(25, 0, 200, 100, 150), // achieved 0.5, optimal 2/3 -> dilation 4/3
	}
	s := Summarize(apps, 100)
	wantEff := 100 * (50*0.8 + 25*0.5) / 100
	if math.Abs(s.SysEfficiency-wantEff) > 1e-9 {
		t.Errorf("sys efficiency = %g, want %g", s.SysEfficiency, wantEff)
	}
	wantUpper := 100 * (50*0.8 + 25*(100.0/150)) / 100
	if math.Abs(s.UpperLimit-wantUpper) > 1e-9 {
		t.Errorf("upper limit = %g, want %g", s.UpperLimit, wantUpper)
	}
	if math.Abs(s.Dilation-4.0/3) > 1e-9 {
		t.Errorf("dilation = %g, want 4/3", s.Dilation)
	}
	if s.Makespan != 200 {
		t.Errorf("makespan = %g, want 200", s.Makespan)
	}
}

func TestSummarizePanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for totalNodes = 0")
		}
	}()
	Summarize(nil, 0)
}

func TestPerAppDilations(t *testing.T) {
	apps := []AppPerf{
		{ID: 2, Nodes: 1, Finish: 200, Work: 100, IdealTime: 100},
		{ID: 1, Nodes: 1, Finish: 100, Work: 100, IdealTime: 100},
	}
	d := PerAppDilations(apps)
	if len(d) != 2 || math.Abs(d[0]-1) > 1e-9 || math.Abs(d[1]-2) > 1e-9 {
		t.Errorf("dilations = %v, want [1 2] (sorted by ID)", d)
	}
}

func TestThroughputDecrease(t *testing.T) {
	apps := []AppPerf{
		// Ideal I/O time 50 s for 100 GiB (2 GiB/s); actual 100 s
		// (1 GiB/s) -> 50% decrease.
		{Nodes: 1, Finish: 1, Work: 100, IdealTime: 150, IOTime: 100, Volume: 100},
		// No volume: skipped.
		{Nodes: 1, Finish: 1, Work: 100, IdealTime: 100, IOTime: 0, Volume: 0},
	}
	d := ThroughputDecrease(apps)
	if len(d) != 1 {
		t.Fatalf("got %d entries, want 1", len(d))
	}
	if math.Abs(d[0]-50) > 1e-9 {
		t.Errorf("decrease = %g%%, want 50%%", d[0])
	}
}

func TestSampleStats(t *testing.T) {
	s := Sample{1, 2, 3, 4, 5}
	if s.Mean() != 3 {
		t.Errorf("mean = %g", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	if got, want := s.Std(), math.Sqrt(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("std = %g, want %g", got, want)
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := s.Percentile(25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
}

func TestEmptySampleIsNaN(t *testing.T) {
	var s Sample
	for name, v := range map[string]float64{
		"mean": s.Mean(), "std": s.Std(), "min": s.Min(),
		"max": s.Max(), "p50": s.Percentile(50),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty sample = %g, want NaN", name, v)
		}
	}
}

func TestHistogram(t *testing.T) {
	s := Sample{0, 5, 15, 25, 95, 200, -3}
	counts := s.Histogram(0, 10, 10)
	if counts[0] != 3 { // 0, 5, -3 (clamped)
		t.Errorf("bin 0 = %d, want 3", counts[0])
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Errorf("bins 1,2 = %d,%d, want 1,1", counts[1], counts[2])
	}
	if counts[9] != 2 { // 95 and 200 (clamped)
		t.Errorf("bin 9 = %d, want 2", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(s) {
		t.Errorf("histogram total %d != sample size %d", total, len(s))
	}
}

func TestMeanSummary(t *testing.T) {
	runs := []Summary{
		{SysEfficiency: 50, UpperLimit: 90, Dilation: 2, Makespan: 100},
		{SysEfficiency: 70, UpperLimit: 80, Dilation: 4, Makespan: 300},
	}
	m := MeanSummary(runs)
	if m.SysEfficiency != 60 || m.UpperLimit != 85 || m.Dilation != 3 || m.Makespan != 200 {
		t.Errorf("mean summary = %+v", m)
	}
	var zero Summary
	if got := MeanSummary(nil); got != zero {
		t.Errorf("mean of no runs = %+v, want zero", got)
	}
}

// Properties: percentile is monotone in p and bounded by min/max.
func TestPercentileQuick(t *testing.T) {
	f := func(raw []int16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Sample, len(raw))
		for i, r := range raw {
			s[i] = float64(r)
		}
		p1, p2 := float64(pa%101), float64(pb%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= s.Min() && v2 <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomApps builds a deterministic synthetic population for the
// windowed-summary tests.
func randomApps(n int, rng *rand.Rand) []AppPerf {
	apps := make([]AppPerf, n)
	for i := range apps {
		rel := rng.Float64() * 50
		ideal := 10 + rng.Float64()*100
		work := ideal * (0.3 + 0.6*rng.Float64())
		finish := rel + ideal*(1+rng.Float64()*2)
		apps[i] = AppPerf{
			ID: i + 1, Nodes: 100 + rng.Intn(900),
			Release: rel, Finish: finish,
			Work: work, IdealTime: ideal,
			IOTime: ideal - work, Volume: 10,
		}
	}
	return apps
}

// TestSummarizeIsFullWindow pins the one case the windowed objectives
// must meet exactly: for applications released at t ≥ 0, the window
// [0, +∞) covers every lifetime and reproduces Summarize bit for bit.
func TestSummarizeIsFullWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		apps := randomApps(1+rng.Intn(40), rng)
		total := 0
		for _, a := range apps {
			total += a.Nodes
		}
		total += rng.Intn(1000) // idle nodes
		want := Summarize(apps, total)
		if got := SummarizeWindow(apps, total, 0, math.Inf(1)); got != want {
			t.Fatalf("trial %d: full-window summary differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestSummarizeWindowPartial(t *testing.T) {
	apps := []AppPerf{
		{ID: 1, Nodes: 100, Release: 0, Finish: 10, Work: 5, IdealTime: 10},
		{ID: 2, Nodes: 100, Release: 20, Finish: 30, Work: 5, IdealTime: 10},
	}
	// Window covering only app 1.
	got := SummarizeWindow(apps, 200, 0, 15)
	only1 := Summarize(apps[:1], 200)
	if got != only1 {
		t.Fatalf("window excluding app 2: got %+v, want %+v", got, only1)
	}
	// Half of app 2's lifetime: its weight halves the node contribution.
	got = SummarizeWindow(apps, 200, 0, 25)
	a2 := apps[1]
	wantSys := (100*apps[0].AchievedEff() + 0.5*100*a2.AchievedEff()) * 100 / 200
	if math.Abs(got.SysEfficiency-wantSys) > 1e-12 {
		t.Fatalf("half-overlap SysEff %g, want %g", got.SysEfficiency, wantSys)
	}
	if got.Makespan != 25 {
		t.Fatalf("in-window makespan %g, want 25", got.Makespan)
	}
	// Empty window: no contributions.
	got = SummarizeWindow(apps, 200, 11, 19)
	if got.SysEfficiency != 0 || got.MeanDilation != 0 {
		t.Fatalf("empty window gave %+v", got)
	}
}

// TestSummarizeWindowEdgeCases pins the partial-overlap corners: instant
// (single-point) windows, zero-length lifetimes, and a window that lies
// entirely past every finish (the empty tail).
func TestSummarizeWindowEdgeCases(t *testing.T) {
	apps := []AppPerf{
		{ID: 1, Nodes: 100, Release: 0, Finish: 10, Work: 5, IdealTime: 10},
		{ID: 2, Nodes: 50, Release: 5, Finish: 5, Work: 0, IdealTime: 1},
	}
	// An instant window inside app 1's lifetime: overlap duration 0, so
	// weight 0 — except the zero-length lifetime sitting exactly on the
	// instant, which counts fully.
	got := SummarizeWindow(apps, 200, 5, 5)
	only2 := Summarize(apps[1:], 200)
	if got.SysEfficiency != only2.SysEfficiency || got.Makespan != 5 {
		t.Fatalf("instant window: got %+v, want only app 2 (%+v)", got, only2)
	}
	// An instant window touching a lifetime edge still yields weight 0
	// for finite lifetimes: nothing contributes.
	got = SummarizeWindow(apps, 200, 10, 10)
	if got.SysEfficiency != 0 || got.Makespan != 0 {
		t.Fatalf("edge instant window gave %+v", got)
	}
	// Empty tail: a window past every finish sees no application and
	// returns the neutral summary (Dilation floor 1, everything else 0).
	got = SummarizeWindow(apps, 200, 11, math.Inf(1))
	if got.SysEfficiency != 0 || got.MeanDilation != 0 || got.Makespan != 0 || got.Dilation != 1 {
		t.Fatalf("empty tail gave %+v", got)
	}
	// A window clipping only the head of a lifetime weights by the
	// overlapped fraction.
	got = SummarizeWindow(apps[:1], 200, 0, 2.5)
	want := 0.25 * 100 * apps[0].AchievedEff() * 100 / 200
	if math.Abs(got.SysEfficiency-want) > 1e-12 {
		t.Fatalf("head clip SysEff %g, want %g", got.SysEfficiency, want)
	}
}
