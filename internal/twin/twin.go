// Package twin is the system's digital twin: an online forecasting and
// policy-advisor layer that connects the live scheduler daemon
// (internal/server) to its own predictive model — the deterministic
// event-driven simulator (internal/sim).
//
// The loop is observe → predict → advise → actuate, the control shape of
// Collignon et al.'s storage-congestion controller and Aupy et al.'s
// pattern-exploiting periodic schedulers, built from this repository's
// pieces: Server.Snapshot exports the daemon's consistent live view
// (observe); Engine.Forecast warm-starts the simulator from it and
// fast-forwards a fixed horizon under a panel of candidate policies in
// parallel (predict); Advisor applies hysteresis to the per-policy
// forecasts and recommends a switch only when a challenger keeps beating
// the incumbent (advise); Server.SetPolicy applies the recommendation
// (actuate). The same Engine runs offline what-if analysis over snapshot
// files (cmd/iotwin) and the forecast-accuracy / advisor-benefit
// experiments (AdvisedRun, ForecastAccuracy).
//
// Forecasts inherit the simulator's determinism: the same snapshot and
// panel always produce the same forecasts, and under the policy that is
// actually running, a forecast to completion is exact up to the model's
// fidelity to the real system (unknown future arrivals, progress-report
// granularity — quantified by ForecastAccuracy).
package twin

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Config describes a forecasting engine.
type Config struct {
	// Platform supplies the machine model (node count for efficiency
	// normalization, capacities, optional burst buffer).
	Platform *platform.Platform
	// UseBB and RequestLatency mirror sim.Config.
	UseBB          bool
	RequestLatency float64
	// Horizon is how far past the snapshot each forecast fast-forwards,
	// in seconds; <= 0 forecasts to workload completion.
	Horizon float64
	// Workers bounds the policy fan-out parallelism (<= 0 selects
	// GOMAXPROCS).
	Workers int
}

// Engine forecasts snapshots under candidate policies.
type Engine struct {
	cfg Config
}

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Platform == nil {
		return nil, errors.New("twin: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.UseBB && cfg.Platform.BurstBuffer == nil {
		return nil, fmt.Errorf("twin: UseBB set but platform %q has no burst buffer", cfg.Platform.Name)
	}
	return &Engine{cfg: cfg}, nil
}

// AppForecast is one application's predicted outcome.
type AppForecast struct {
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	Nodes int    `json:"nodes"`
	// Finish is the predicted completion instant: exact for applications
	// that finish within the horizon, a congestion-free lower-bound
	// estimate (horizon + remaining dedicated time) for the rest.
	Finish float64 `json:"finish"`
	// Stretch is (Finish − Release) / DedicatedTime, the same quantity
	// metrics.AppPerf.Dilation reports for completed runs (>= 1).
	Stretch float64 `json:"stretch"`
	// Done reports whether the application completed within the horizon
	// (its Finish and Stretch are then exact under the model).
	Done bool `json:"done"`
}

// Forecast is one policy's predicted future.
type Forecast struct {
	Policy string `json:"policy"`
	// At is the snapshot instant the forecast started from; Until the
	// simulated instant it ran to (At + horizon, or the predicted
	// makespan when the workload completes earlier / the horizon is
	// unbounded).
	At    float64 `json:"at"`
	Until float64 `json:"until"`
	// Done reports whether every application finished within the horizon.
	Done bool `json:"done"`

	// MaxStretch and MeanStretch aggregate AppForecast.Stretch (mean is
	// node-weighted, mirroring metrics.Summary.MeanDilation).
	MaxStretch  float64 `json:"max_stretch"`
	MeanStretch float64 `json:"mean_stretch"`
	// SysEfficiency estimates the paper's objective at Until, in percent
	// of the platform's nodes.
	SysEfficiency float64 `json:"sys_efficiency"`
	// BBPeakLevel/BBFullTime report predicted burst-buffer pressure over
	// the forecast window (zero without a burst buffer).
	BBPeakLevel float64 `json:"bb_peak_gib,omitempty"`
	BBFullTime  float64 `json:"bb_full_s,omitempty"`

	// Events and Decisions count the forecast's own simulation work.
	Events    int `json:"events"`
	Decisions int `json:"decisions"`

	Apps []AppForecast `json:"apps"`

	// Err is set when this policy's forecast failed (the panel's other
	// forecasts are unaffected); all other fields are then zero.
	Err string `json:"err,omitempty"`
}

// Forecast fast-forwards the snapshot under every named policy in
// parallel and returns one Forecast per policy, in panel order. Unknown
// policy names fail the whole call; a simulation failure under one
// policy is reported in that Forecast's Err instead, so one diverging
// candidate cannot hide the rest of the panel.
func (e *Engine) Forecast(apps []*platform.App, snap *sim.Snapshot, policies []string) ([]Forecast, error) {
	if snap == nil {
		return nil, errors.New("twin: nil snapshot")
	}
	if len(policies) == 0 {
		return nil, errors.New("twin: empty policy panel")
	}
	scheds := make([]core.Scheduler, len(policies))
	for i, name := range policies {
		s, err := core.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		scheds[i] = s
	}
	return parallel.Map(len(policies), e.cfg.Workers, func(i int) (Forecast, error) {
		return e.forecastOne(scheds[i], apps, snap), nil
	})
}

// forecastOne runs one candidate policy over its own snapshot clone.
func (e *Engine) forecastOne(sched core.Scheduler, apps []*platform.App, snap *sim.Snapshot) Forecast {
	until := math.Inf(1)
	if e.cfg.Horizon > 0 {
		until = snap.Time + e.cfg.Horizon
	}
	s := snap.Clone()
	// The candidate policy must re-share bandwidth at the forecast start:
	// it is a what-if resume, not a faithful continuation, and inheriting
	// the incumbent's grants until the first event would charge the
	// incumbent's choices to the candidate.
	s.RedecideOnResume = true
	cfg := sim.Config{
		Platform:       e.cfg.Platform,
		Scheduler:      sched,
		Apps:           apps,
		UseBB:          e.cfg.UseBB,
		RequestLatency: e.cfg.RequestLatency,
	}
	final, err := sim.ResumeToSnapshot(cfg, s, until)
	if err != nil {
		return Forecast{Policy: sched.Name(), At: snap.Time, Err: err.Error()}
	}
	return e.measure(sched.Name(), snap.Time, apps, final)
}

// measure reduces a fast-forwarded snapshot to the forecast metrics.
func (e *Engine) measure(policy string, at float64, apps []*platform.App, final *sim.Snapshot) Forecast {
	f := Forecast{
		Policy:     policy,
		At:         at,
		Until:      final.Time,
		Done:       true,
		MaxStretch: 1,
		Events:     final.Events,
		Decisions:  final.Decisions,
	}
	if final.BB != nil {
		f.BBPeakLevel = final.BB.PeakGiB
		f.BBFullTime = final.BB.FullTimeS
	}
	byID := make(map[int]*platform.App, len(apps))
	for _, a := range apps {
		byID[a.ID] = a
	}
	// The objective is metrics' own: an unfinished application is
	// measured at the horizon with the work credited so far.
	var weighted, nodes float64
	perfs := make([]metrics.AppPerf, 0, len(final.Apps))
	for i := range final.Apps {
		as := &final.Apps[i]
		app := byID[as.ID]
		if app == nil {
			continue // Resume validated the pairing; defensive only
		}
		ideal := app.DedicatedTime(e.cfg.Platform)
		af := AppForecast{ID: as.ID, Name: app.Name, Nodes: app.Nodes}
		perf := metrics.AppPerf{Nodes: app.Nodes, Release: app.Release}
		if as.Phase == sim.PhaseFinished {
			af.Finish = as.Finish
			af.Done = true
			perf.Finish, perf.Work = as.Finish, app.TotalWork()
		} else {
			f.Done = false
			af.Finish = final.Time + remainingDedicated(app, as, final.Time, e.cfg.Platform)
			perf.Finish, perf.Work = final.Time, as.CreditedWork
		}
		af.Stretch = 1
		if ideal > 0 && af.Finish > app.Release {
			if s := (af.Finish - app.Release) / ideal; s > 1 {
				af.Stretch = s
			}
		}
		if af.Stretch > f.MaxStretch {
			f.MaxStretch = af.Stretch
		}
		weighted += float64(float64(app.Nodes) * af.Stretch)
		nodes += float64(app.Nodes)
		perfs = append(perfs, perf)
		f.Apps = append(f.Apps, af)
	}
	if nodes > 0 {
		f.MeanStretch = weighted / nodes
	}
	f.SysEfficiency = metrics.Summarize(perfs, e.cfg.Platform.Nodes).SysEfficiency
	return f
}

// remainingDedicated returns the congestion-free time the application
// still needs from instant now in the given state: the rest of the
// current phase plus every remaining instance at full speed. It is the
// optimistic completion estimate for applications cut off by the horizon.
func remainingDedicated(app *platform.App, as *sim.AppState, now float64, p *platform.Platform) float64 {
	idx := as.Instance
	if idx >= len(app.Instances) {
		return 0
	}
	var rem float64
	switch as.Phase {
	case sim.PhaseNotReleased:
		if as.Until > now {
			rem += as.Until - now
		}
		rem += app.Instances[idx].Work + app.IOTime(p, idx)
	case sim.PhaseComputing, sim.PhaseRequesting:
		if as.Until > now {
			rem += as.Until - now
		}
		rem += app.IOTime(p, idx)
	case sim.PhaseIO:
		if as.RemVolume > 0 {
			rem += as.RemVolume / p.PeakAppBW(app.Nodes)
		}
	}
	for i := idx + 1; i < len(app.Instances); i++ {
		rem += app.Instances[i].Work + app.IOTime(p, i)
	}
	return rem
}
