package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestProbeMinInterval(t *testing.T) {
	p := &Probe{MinInterval: 1.0}
	times := []float64{0, 0.5, 0.9, 1.0, 1.5, 2.5, 2.6}
	var accepted []float64
	for _, at := range times {
		if p.Due(at) {
			p.Record(Point{Time: at})
			accepted = append(accepted, at)
		}
	}
	want := []float64{0, 1.0, 2.5}
	if !reflect.DeepEqual(accepted, want) {
		t.Fatalf("accepted %v, want %v", accepted, want)
	}
	if got := p.Snapshot().Points; len(got) != len(want) {
		t.Fatalf("snapshot holds %d points, want %d", len(got), len(want))
	}
}

func TestProbeZeroIntervalAcceptsEverything(t *testing.T) {
	p := &Probe{}
	for i := 0; i < 5; i++ {
		at := float64(i) * 0.001
		if !p.Due(at) {
			t.Fatalf("point at %g rejected under MinInterval=0", at)
		}
		p.Record(Point{Time: at})
	}
	// Repeated instants (daemon rounds at one fake-clock time) must be
	// accepted too.
	if !p.Due(0.004) {
		t.Fatal("repeated instant rejected under MinInterval=0")
	}
	if p.Points() != 5 {
		t.Fatalf("held %d points, want 5", p.Points())
	}
}

func TestProbeRing(t *testing.T) {
	p := &Probe{MaxPoints: 4}
	for i := 0; i < 10; i++ {
		p.Record(Point{Time: float64(i)})
	}
	snap := p.Snapshot()
	var got []float64
	for _, pt := range snap.Points {
		got = append(got, pt.Time)
	}
	want := []float64{6, 7, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring snapshot times %v, want %v", got, want)
	}
	last, ok := p.Last()
	if !ok || last.Time != 9 {
		t.Fatalf("Last = %+v, %v; want time 9", last, ok)
	}
}

func TestProbeRecordSteadyStateAllocFree(t *testing.T) {
	p := &Probe{MaxPoints: 64}
	for i := 0; i < 64; i++ {
		p.Record(Point{Time: float64(i)})
	}
	h := p.Histogram("x_seconds")
	allocs := testing.AllocsPerRun(100, func() {
		p.Record(Point{Time: 100})
		h.Observe(1e-3)
	})
	if allocs != 0 {
		t.Fatalf("steady Record+Observe allocates %v/op, want 0", allocs)
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.Float64()*40 - 20) // ~2e-9 .. 5e8
		idx := bucketIndex(v)
		if v > bucketUpper(idx) {
			t.Fatalf("value %g above its bucket bound %g (bucket %d)", v, bucketUpper(idx), idx)
		}
		if idx > 0 && v <= bucketUpper(idx-1) {
			t.Fatalf("value %g at or below previous bound %g (bucket %d)", v, bucketUpper(idx-1), idx)
		}
	}
	// Degenerate values all land in a bucket instead of panicking.
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%g) = %d out of range", v, idx)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64()) * 1e-3 // log-normal around 1ms
		values = append(values, v)
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5000 {
		t.Fatalf("count %d, want 5000", snap.Count)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := snap.Quantile(q)
		want := metrics.Sample(values).Percentile(q * 100)
		if rel := math.Abs(got-want) / want; rel > 0.13 {
			t.Errorf("q%g: got %g, want %g (rel err %.3f > bucket bound 0.13)", q, got, want, rel)
		}
	}
	if mean := snap.Mean(); math.Abs(mean-metrics.Sample(values).Mean()) > 1e-9 {
		t.Errorf("mean %g, want exact sum-based %g", mean, metrics.Sample(values).Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	merged := NewHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := math.Exp(rng.Float64()*10 - 8)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		merged.Observe(v)
	}
	got := a.Snapshot().Merge(b.Snapshot())
	want := merged.Snapshot()
	if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-9*want.Sum {
		t.Fatalf("merged count/sum %d/%g, want %d/%g", got.Count, got.Sum, want.Count, want.Sum)
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Fatalf("merged buckets differ:\n got %v\nwant %v", got.Buckets, want.Buckets)
	}
}

// TestHistogramConcurrent exercises the lock-free record/snapshot paths
// under the race detector.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(float64(g+1) * 1e-4)
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				snap := h.Snapshot()
				var cum uint64
				for _, b := range snap.Buckets {
					cum += b.Count
				}
				if cum != snap.Count {
					t.Error("snapshot count inconsistent with buckets")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := h.Snapshot().Count; got != 20000 {
		t.Fatalf("final count %d, want 20000", got)
	}
}

func TestPointBuilder(t *testing.T) {
	var b PointBuilder
	views := []core.AppView{
		{ID: 1, Nodes: 100, Release: 0, CreditedWork: 10, CreditedIdeal: 20},
		{ID: 2, Nodes: 300, Release: 0, CreditedWork: 0},
		{ID: 3, Nodes: 100, Release: 0, CreditedWork: 5, CreditedIdeal: 10},
	}
	bws := []float64{4, 0, 4}
	now := 40.0
	for i := range views {
		b.Add(now, &views[i], bws[i], 0.01)
	}
	pt := b.Finish(now, 10, 2.5)
	if pt.Candidates != 3 {
		t.Fatalf("candidates %d, want 3", pt.Candidates)
	}
	if got, want := pt.Utilization, 0.8; got != want {
		t.Errorf("utilization %g, want %g", got, want)
	}
	if got, want := pt.Backlog, (100*0.01+300*0.01+100*0.01)/10; got != want {
		t.Errorf("backlog %g, want %g", got, want)
	}
	// Jain over grants {4, 0, 4}: 64 / (3·32) = 2/3.
	if got, want := pt.Jain, 64.0/96.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("jain %g, want %g", got, want)
	}
	// App 1: achieved 10/40, optimal 10/20 → ratio 0.5 → stretch 2.
	// App 2: no credited work → ratio 1 → stretch 1.
	// App 3: achieved 5/40, optimal 0.5 → ratio 0.25 → stretch 4.
	if pt.MaxStretch != 4 {
		t.Errorf("max stretch %g, want 4", pt.MaxStretch)
	}
	if got, want := pt.MeanStretch, (2.0+1.0+4.0)/3; math.Abs(got-want) > 1e-15 {
		t.Errorf("mean stretch %g, want %g", got, want)
	}
	if pt.BBLevel != 2.5 {
		t.Errorf("bb level %g, want 2.5", pt.BBLevel)
	}

	// Empty walk: vacuous values.
	var e PointBuilder
	pt = e.Finish(1, 10, 0)
	if pt.Utilization != 0 || pt.Backlog != 0 || pt.Jain != 1 || pt.MaxStretch != 1 || pt.MeanStretch != 1 {
		t.Errorf("empty point %+v, want vacuous defaults", pt)
	}
}

// TestWindowedValuesAcrossRingWrap pins windowed reads over a probe
// whose ring overwrote its oldest points: a window straddling the
// overwrite boundary must see only the surviving points, in time order.
func TestWindowedValuesAcrossRingWrap(t *testing.T) {
	p := &Probe{MaxPoints: 8}
	for i := 0; i < 12; i++ {
		p.Record(Point{Time: float64(i), Utilization: float64(i) / 100})
	}
	tel := p.Snapshot()
	if len(tel.Points) != 8 || tel.Points[0].Time != 4 || tel.Points[7].Time != 11 {
		t.Fatalf("ring snapshot wrong: %+v", tel.Points)
	}
	// Window [2,6] straddles the overwrite boundary: times 2 and 3 were
	// overwritten, so only 4..6 survive.
	vals := tel.Values("util", Window{Start: 2, End: 6})
	if want := []float64{0.04, 0.05, 0.06}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("straddling window values %v, want %v", vals, want)
	}
	// Single-point window on a surviving sample.
	agg, err := tel.Aggregate("util", Window{Start: 7, End: 7})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 1 || agg.Mean != 0.07 || agg.Min != 0.07 || agg.Max != 0.07 {
		t.Fatalf("single-point window stats %+v", agg)
	}
	// Single-point window on an overwritten sample: empty, NaN stats.
	agg, err = tel.Aggregate("util", Window{Start: 2, End: 2})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 || !math.IsNaN(agg.Mean) {
		t.Fatalf("overwritten-sample window stats %+v", agg)
	}
	// Empty tail past the newest point.
	agg, err = tel.Aggregate("util", Window{Start: 12, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 || !math.IsNaN(agg.P99) {
		t.Fatalf("empty tail stats %+v", agg)
	}
}

func TestAggregateAndValues(t *testing.T) {
	tel := &Telemetry{}
	for i := 0; i < 10; i++ {
		tel.Points = append(tel.Points, Point{Time: float64(i), Utilization: float64(i) / 10})
	}
	vals := tel.Values("util", Window{Start: 2, End: 5})
	if want := []float64{0.2, 0.3, 0.4, 0.5}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("windowed values %v, want %v", vals, want)
	}
	st, err := tel.Aggregate("util", Window{Start: 0, End: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 10 || math.Abs(st.Mean-0.45) > 1e-15 || st.Min != 0 || st.Max != 0.9 {
		t.Fatalf("aggregate %+v", st)
	}
	if _, err := tel.Aggregate("nope", Window{}); err == nil {
		t.Fatal("unknown series accepted")
	}
	for _, name := range SeriesNames() {
		if _, err := tel.Aggregate(name, Window{Start: 0, End: 9}); err != nil {
			t.Fatalf("declared series %q rejected: %v", name, err)
		}
	}
}

func TestPromWriterRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1e-4, 2e-4, 5e-4, 1e-3, 1e-2} {
		h.Observe(v)
	}
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Gauge("x_utilization_ratio", "PFS bandwidth utilization", 0.75)
	pw.Counter("x_rounds_total", "allocation rounds", 42)
	pw.Histogram("x_round_duration_seconds", "round latency", h.Snapshot())
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("output failed validation: %v\n%s", err, sb.String())
	}
	if v := fams["x_utilization_ratio"].Samples["x_utilization_ratio"]; v != 0.75 {
		t.Fatalf("gauge value %g, want 0.75", v)
	}
	if v := fams["x_rounds_total"].Samples["x_rounds_total"]; v != 42 {
		t.Fatalf("counter value %g, want 42", v)
	}
	hist := fams["x_round_duration_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", fams)
	}
	if v := hist.Samples["x_round_duration_seconds_count"]; v != 5 {
		t.Fatalf("histogram count %g, want 5", v)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":          "orphan_metric 1\n",
		"bad value":        "# TYPE m gauge\nm xyz\n",
		"unclosed labels":  "# TYPE m gauge\nm{le=\"1\" 1\n",
		"hist no inf":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"hist decreasing":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"hist count drift": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
	}
	for name, in := range cases {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, in)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Fatalf("empty input rendered %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if want := "▁▂▃▄▅▆▇█"; got != want {
		t.Fatalf("ramp rendered %q, want %q", got, want)
	}
	// A constant series renders at the midline, not the minimum: a
	// pinned-at-capacity utilization series must not look idle.
	if got := Sparkline([]float64{5, 5, 5}, 3); got != "▅▅▅" {
		t.Fatalf("flat series rendered %q, want midline", got)
	}
	if got := Sparkline([]float64{0, 0, 0}, 3); got != "▅▅▅" {
		t.Fatalf("flat zero series rendered %q, want midline", got)
	}
	if n := len([]rune(Sparkline([]float64{1, 2}, 6))); n != 6 {
		t.Fatalf("upsampled width %d, want 6", n)
	}
	if n := len([]rune(Sparkline(make([]float64, 1000), 20))); n != 20 {
		t.Fatalf("downsampled width %d, want 20", n)
	}
}
