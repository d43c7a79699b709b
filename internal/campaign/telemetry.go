package campaign

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TelemetrySummary condenses a cell's congestion time series into the
// statistics worth persisting: full-run aggregates of the sampled
// signals, plus the paper objectives recomputed over the steady window —
// the central 80% of the makespan, trimming the warm-up ramp and the
// drain tail that dominate closed-workload runs. The raw point series is
// deliberately not cached; re-running the cell with a probe reproduces
// it exactly.
type TelemetrySummary struct {
	// Samples is the number of telemetry points the probe accepted.
	Samples int `json:"samples"`

	UtilMean    float64 `json:"util_mean"`
	UtilP99     float64 `json:"util_p99"`
	BacklogMean float64 `json:"backlog_mean"`
	BacklogP99  float64 `json:"backlog_p99"`
	CandMean    float64 `json:"cand_mean"`
	JainMean    float64 `json:"jain_mean"`
	StretchP99  float64 `json:"stretch_p99"`

	// SteadyWindow is [0.1·makespan, 0.9·makespan]; the two objective
	// fields below are metrics.SummarizeWindow over it.
	SteadyWindow       telemetry.Window `json:"steady_window"`
	SteadySysEff       float64          `json:"steady_sys_eff"`
	SteadyMeanDilation float64          `json:"steady_mean_dilation"`
}

// summarizeTelemetry builds the persisted summary from a telemetered
// simulation result. totalNodes is the platform size the windowed
// objectives are normalized by.
func summarizeTelemetry(res *sim.Result, totalNodes int) *TelemetrySummary {
	tel := res.Telemetry
	full := telemetry.Window{Start: math.Inf(-1), End: math.Inf(1)}
	ts := &TelemetrySummary{Samples: len(tel.Points)}
	if ts.Samples > 0 {
		util := mustAggregate(tel, "util", full)
		backlog := mustAggregate(tel, "backlog", full)
		ts.UtilMean, ts.UtilP99 = util.Mean, util.P99
		ts.BacklogMean, ts.BacklogP99 = backlog.Mean, backlog.P99
		ts.CandMean = mustAggregate(tel, "candidates", full).Mean
		ts.JainMean = mustAggregate(tel, "jain", full).Mean
		ts.StretchP99 = mustAggregate(tel, "max_stretch", full).P99
	}
	w := telemetry.Window{Start: 0.1 * res.Summary.Makespan, End: 0.9 * res.Summary.Makespan}
	steady := metrics.SummarizeWindow(res.Apps, totalNodes, w.Start, w.End)
	ts.SteadyWindow = w
	ts.SteadySysEff = steady.SysEfficiency
	ts.SteadyMeanDilation = steady.MeanDilation
	return ts
}

// mustAggregate aggregates a known-good series name; the names above are
// fixed members of telemetry.SeriesNames, so an error is programmer
// error.
func mustAggregate(tel *telemetry.Telemetry, name string, w telemetry.Window) telemetry.SeriesStats {
	s, err := tel.Aggregate(name, w)
	if err != nil {
		panic(err)
	}
	return s
}
