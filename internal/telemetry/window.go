package telemetry

import (
	"fmt"

	"repro/internal/metrics"
)

// Window is a closed time interval [Start, End] on the engine clock.
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Contains reports whether t lies in the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t <= w.End }

// SeriesNames lists the point series available to Values/Aggregate, in
// exposition order.
func SeriesNames() []string {
	return []string{"util", "backlog", "candidates", "bb_level", "jain", "max_stretch", "mean_stretch"}
}

// pointValue extracts one named series value from a point.
func pointValue(pt Point, name string) (float64, bool) {
	switch name {
	case "util":
		return pt.Utilization, true
	case "backlog":
		return pt.Backlog, true
	case "candidates":
		return float64(pt.Candidates), true
	case "bb_level":
		return pt.BBLevel, true
	case "jain":
		return pt.Jain, true
	case "max_stretch":
		return pt.MaxStretch, true
	case "mean_stretch":
		return pt.MeanStretch, true
	}
	return 0, false
}

// Values returns the named series restricted to the window, in time
// order. Unknown names return nil.
func (t *Telemetry) Values(name string, w Window) []float64 {
	if _, ok := pointValue(Point{}, name); !ok {
		return nil
	}
	var out []float64
	for _, pt := range t.Points {
		if w.Contains(pt.Time) {
			v, _ := pointValue(pt, name)
			out = append(out, v)
		}
	}
	return out
}

// SeriesStats summarizes one series over a window.
type SeriesStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Aggregate computes mean/p50/p99/min/max of the named series over the
// window (NaN statistics when the window holds no samples, matching
// metrics.Sample).
func (t *Telemetry) Aggregate(name string, w Window) (SeriesStats, error) {
	if _, ok := pointValue(Point{}, name); !ok {
		return SeriesStats{}, fmt.Errorf("telemetry: unknown series %q (have %v)", name, SeriesNames())
	}
	s := metrics.Sample(t.Values(name, w))
	return SeriesStats{
		Count: len(s),
		Mean:  s.Mean(),
		P50:   s.Percentile(50),
		P99:   s.Percentile(99),
		Min:   s.Min(),
		Max:   s.Max(),
	}, nil
}
