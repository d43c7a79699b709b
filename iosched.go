// Package iosched is a library for scheduling the I/O of HPC applications
// under congestion, reproducing Gainaru, Aupy, Benoit, Cappello, Robert
// and Snir, "Scheduling the I/O of HPC applications under congestion"
// (IPDPS 2015; INRIA RR-8519).
//
// The package re-exports the user-facing API of the internal packages:
//
//   - the platform/application model of Section 2 (N nodes of I/O-card
//     bandwidth b in front of a file system of bandwidth B; applications
//     alternating compute chunks and I/O transfers);
//   - the online scheduling heuristics of Section 3.1 (RoundRobin,
//     MinDilation, MaxSysEff, MinMax-γ, and their Priority variants) and
//     the fair-share baseline standing in for production I/O schedulers;
//   - the event-driven simulator of Section 4 and the rank-level cluster
//     emulator of Section 5 (modified IOR with a scheduler thread);
//   - the periodic scheduling heuristics of Section 3.2;
//   - workload generators following the paper's Darshan-based
//     characterization, and the experiment registry that regenerates
//     every table and figure of the evaluation.
//
// Quick start:
//
//	p := iosched.Vesta()
//	apps := []*iosched.App{
//		iosched.NewPeriodicApp(0, 256, 30, 60, 10),
//		iosched.NewPeriodicApp(1, 512, 45, 120, 8),
//	}
//	res, err := iosched.Simulate(iosched.SimConfig{
//		Platform:  p.WithoutBB(),
//		Scheduler: iosched.MaxSysEff(),
//		Apps:      apps,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Summary.SysEfficiency, res.Summary.Dilation)
package iosched

import (
	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/experiments"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/periodic"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/twin"
	"repro/internal/workload"
)

// Platform model (Section 2).
type (
	// Platform is a machine: N nodes with per-node I/O bandwidth b and a
	// file system of total bandwidth B, optionally with burst buffers.
	Platform = platform.Platform
	// BurstBuffer is an intermediate staging tier description.
	BurstBuffer = platform.BurstBuffer
	// App is one application: β dedicated nodes and a sequence of
	// compute-then-I/O instances.
	App = platform.App
	// Instance is one compute/I-O phase.
	Instance = platform.Instance
)

// Machine presets used in the paper.
var (
	// Intrepid is Argonne's 40-rack BlueGene/P.
	Intrepid = platform.Intrepid
	// Mira is Argonne's 48-rack BlueGene/Q.
	Mira = platform.Mira
	// Vesta is Mira's two-rack development platform, the Section 5
	// testbed.
	Vesta = platform.Vesta
)

// NewPeriodicApp builds an application with n identical instances of w
// seconds of compute followed by vol GiB of I/O.
func NewPeriodicApp(id, nodes int, w, vol float64, n int) *App {
	return platform.NewPeriodic(id, nodes, w, vol, n)
}

// Scheduling (Section 3.1).
type (
	// Scheduler decides bandwidth sharing at every I/O event.
	Scheduler = core.Scheduler
	// Heuristic is an ordering-based greedy online scheduler.
	Heuristic = core.Heuristic
	// FairShare is the neutral max-min baseline (production scheduler).
	FairShare = core.FairShare
)

// ProportionalShare is the node-proportional baseline.
type ProportionalShare = core.ProportionalShare

// Online heuristic constructors.
var (
	// RoundRobin favors the application whose last I/O finished longest
	// ago (the comparison baseline heuristic).
	RoundRobin = core.RoundRobin
	// MinDilation favors the most slowed applications (user-oriented).
	MinDilation = core.MinDilation
	// MaxSysEff favors applications with the lowest β·ρ̃ (CPU-oriented).
	MaxSysEff = core.MaxSysEff
	// MinMax trades the two off around the threshold γ.
	MinMax = core.MinMax
	// SchedulerByName builds a scheduler from its report name
	// (e.g. "Priority-MinMax-0.5").
	SchedulerByName = core.ByName
	// AllHeuristics returns the eight Figure 6 heuristics.
	AllHeuristics = core.AllHeuristics
	// WithTimeout wraps a scheduler so no request waits longer than the
	// I/O system's timeout (Section 2.1 of the paper).
	WithTimeout = core.NewTimeout
)

// Simulation (Section 4).
type (
	// SimConfig configures one simulator run.
	SimConfig = sim.Config
	// SimResult is the simulator outcome.
	SimResult = sim.Result
	// AppPerf is one application's performance record.
	AppPerf = metrics.AppPerf
	// Summary holds the run objectives (SysEfficiency, Dilation, ...).
	Summary = metrics.Summary
)

// ExecTrace records per-application phases and bandwidths over a
// simulation for visualization.
type ExecTrace = sim.Trace

// RenderGantt draws execution-trace rows as an ASCII timeline.
var RenderGantt = report.RenderGantt

// Simulate runs the application-level event-driven simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// Warm starts and the digital twin (internal/sim snapshots,
// internal/twin forecasting).
type (
	// SimSnapshot is a simulation's complete state at one event instant;
	// resuming it is bit-identical to an uninterrupted run.
	SimSnapshot = sim.Snapshot
	// TwinConfig configures a forecasting engine.
	TwinConfig = twin.Config
	// TwinEngine fast-forwards snapshots under candidate policies.
	TwinEngine = twin.Engine
	// TwinForecast is one policy's predicted future.
	TwinForecast = twin.Forecast
	// TwinAdvisor turns forecast panels into hysteresis-guarded switch
	// recommendations.
	TwinAdvisor = twin.Advisor
)

var (
	// SimulateToSnapshot runs a simulation until a stop time and captures
	// its state.
	SimulateToSnapshot = sim.RunToSnapshot
	// ResumeSimulation continues a snapshot to completion.
	ResumeSimulation = sim.Resume
	// NewTwin builds a forecasting engine.
	NewTwin = twin.New
	// NewTwinAdvisor builds a policy advisor.
	NewTwinAdvisor = twin.NewAdvisor
	// AdvisedSimulate executes a workload under advisor control.
	AdvisedSimulate = twin.AdvisedRun
)

// Decision tracing and counterfactual replay (internal/dectrace,
// twin.Explain): every allocation decision point of the simulator and
// the daemon, recordable as JSONL or an in-memory ring, plus the engine
// that forks a recorded run at its decision points to price them.
type (
	// DecisionRecord is one decision point: timestamp, triggering event
	// kind, verdict (grants or a skip reason) and the engine's view of
	// the candidates.
	DecisionRecord = dectrace.Record
	// DecisionSink consumes decision records as the engine makes them
	// (attach via SimConfig.DecisionTrace).
	DecisionSink = dectrace.Sink
	// DecisionRing keeps the most recent records in memory.
	DecisionRing = dectrace.Ring
	// DecisionWriter streams records as JSON Lines.
	DecisionWriter = dectrace.Writer
	// ExplainConfig configures a counterfactual replay.
	ExplainConfig = twin.ExplainConfig
	// Explanation ranks a run's costliest decisions.
	Explanation = twin.Explanation
)

var (
	// NewDecisionRing builds a ring sink keeping the last n records.
	NewDecisionRing = dectrace.NewRing
	// NewDecisionWriter builds a JSONL streaming sink.
	NewDecisionWriter = dectrace.NewWriter
	// ReadDecisionTrace parses a recorded JSONL decision trace.
	ReadDecisionTrace = dectrace.ReadAll
	// Explain records a run's decisions and replays the alternatives.
	Explain = twin.Explain
	// WhatIfGrants forks a snapshot with one forced grant vector.
	WhatIfGrants = twin.WhatIfGrants
)

// Telemetry (internal/telemetry): low-overhead congestion time series and
// latency histograms shared by the simulator and the daemon. Attach a
// probe via SimConfig.Telemetry (or server.Config.Telemetry) and read the
// captured series from SimResult.Telemetry; a nil probe costs nothing
// (see docs/observability.md).
type (
	// TelemetryProbe collects sampled congestion points and named
	// latency histograms while an engine runs.
	TelemetryProbe = telemetry.Probe
	// TelemetryPoint is one sampled instant of the congestion series.
	TelemetryPoint = telemetry.Point
	// TelemetrySnapshot is a probe's captured series plus histogram
	// snapshots (the type of SimResult.Telemetry); its Aggregate method
	// reduces one named series over a window.
	TelemetrySnapshot = telemetry.Telemetry
	// TelemetryWindow is a closed [Start, End] aggregation window.
	TelemetryWindow = telemetry.Window
	// TelemetrySeriesStats summarizes one series over a window.
	TelemetrySeriesStats = telemetry.SeriesStats
)

var (
	// TelemetrySeriesNames lists the congestion series a probe samples.
	TelemetrySeriesNames = telemetry.SeriesNames
	// TelemetrySparkline renders a series as a UTF-8 sparkline.
	TelemetrySparkline = telemetry.Sparkline
)

// Health (internal/health): streaming anomaly detectors over the
// telemetry signal, an aggregate verdict with hysteresis, and the
// flight recorder producing deterministic incident bundles. Attach a
// monitor via SimConfig.Health (or server.Config.Health) and read the
// final verdict from SimResult.Health; a nil monitor costs nothing
// (see docs/observability.md).
type (
	// HealthMonitor evaluates the anomaly detectors incrementally from
	// telemetry points.
	HealthMonitor = health.Monitor
	// HealthConfig tunes detector thresholds and hysteresis.
	HealthConfig = health.Config
	// HealthState is the aggregate verdict (ok/degraded/critical).
	HealthState = health.State
	// HealthAlert is one detector firing/resolved transition.
	HealthAlert = health.Alert
	// HealthVerdict is one detector's current standing.
	HealthVerdict = health.Verdict
	// HealthSnapshot is a monitor's point-in-time verdict state (the
	// type of SimResult.Health).
	HealthSnapshot = health.Snapshot
	// IncidentBundle is a flight-recorder dump: detector state, alerts,
	// telemetry, decisions and live snapshot, deterministically encoded.
	IncidentBundle = health.Bundle
	// FlightRecorder assembles incident bundles from pluggable sources.
	FlightRecorder = health.Recorder
	// IncidentReplayReport is the outcome of re-evaluating a bundle.
	IncidentReplayReport = health.ReplayReport
)

// Health state verdicts.
const (
	// HealthOK means no detector is firing.
	HealthOK = health.OK
	// HealthDegraded means a degraded-severity detector is firing.
	HealthDegraded = health.Degraded
	// HealthCritical means a critical-severity detector is firing.
	HealthCritical = health.Critical
)

var (
	// NewHealthMonitor builds a monitor (zero HealthConfig = defaults).
	NewHealthMonitor = health.New
	// HealthDetectorNames lists the detectors in evaluation order.
	HealthDetectorNames = health.DetectorNames
	// DecodeIncidentBundle parses an encoded incident bundle.
	DecodeIncidentBundle = health.DecodeBundle
	// ReplayIncident re-runs the detectors over a bundle's telemetry.
	ReplayIncident = health.Replay
	// BuildInfo reports the binary's build identity (version, VCS
	// revision, toolchain).
	BuildInfo = buildinfo.Get
)

// Cluster emulation (Section 5).
type (
	// ClusterConfig configures one rank-level emulator run (modified IOR
	// with a scheduler thread on Vesta).
	ClusterConfig = cluster.Config
	// ClusterResult is the emulator outcome.
	ClusterResult = cluster.Result
	// IORGroup describes one IOR process group.
	IORGroup = cluster.AppConfig
)

// Cluster benchmark modes.
const (
	// OriginalIOR runs the unmodified benchmark.
	OriginalIOR = cluster.OriginalIOR
	// AlwaysGrant adds the scheduler machinery but approves everything.
	AlwaysGrant = cluster.AlwaysGrant
	// Scheduled runs a real policy.
	Scheduled = cluster.Scheduled
)

// Emulate runs the rank-level cluster emulator.
func Emulate(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// Periodic scheduling (Section 3.2).
type (
	// PeriodicSchedule is a fixed timetable repeated every T seconds.
	PeriodicSchedule = periodic.Schedule
	// PeriodSearchResult is the outcome of the (1+ε) period search.
	PeriodSearchResult = periodic.SearchResult
)

// Periodic heuristic names for SearchPeriod.
const (
	// InsertThrou is Insert-In-Schedule-Throu (SysEfficiency-oriented).
	InsertThrou = periodic.HeuristicThrou
	// InsertCong is Insert-In-Schedule-Cong (Dilation-oriented).
	InsertCong = periodic.HeuristicCong
)

// SearchPeriod runs the paper's period search with one of the two
// insertion heuristics.
func SearchPeriod(p *Platform, apps []*App, heuristic string, tmax, eps float64) (*PeriodSearchResult, error) {
	return periodic.SearchPeriod(p, apps, heuristic, tmax, eps)
}

// Workload generation (Section 4.1).
type (
	// WorkloadConfig drives the synthetic mix generator.
	WorkloadConfig = workload.Config
	// WorkloadSpec is one application group to draw.
	WorkloadSpec = workload.Spec
	// Moment is one congested moment (platform + application mix).
	Moment = workload.Moment
	// Fig6Kind selects one of the three Figure 6 scenario panels.
	Fig6Kind = workload.Fig6Kind
)

// The Figure 6 scenario panels (Section 4.2).
const (
	Fig6A = workload.Fig6A
	Fig6B = workload.Fig6B
	Fig6C = workload.Fig6C
)

// AppTemplate models one of the paper's named periodic production codes
// (S3D, HOMME, GTC, Enzo, HACC, CM1).
type AppTemplate = workload.Template

// Workload helpers.
var (
	// GenerateWorkload draws a seeded application mix.
	GenerateWorkload = workload.Generate
	// Fig6Workload returns the generator configuration of one Figure 6
	// panel replicate.
	Fig6Workload = workload.Fig6Config
	// IntrepidMoments and MiraMoments build the congested-moment sets
	// behind Tables 1 and 2.
	IntrepidMoments = workload.IntrepidMoments
	MiraMoments     = workload.MiraMoments
	// AppTemplates returns the named application models of Section 4.1.
	AppTemplates = workload.Templates
	// DalyPeriod computes the optimal checkpoint interval (Daly 2004),
	// the paper's canonical source of periodic applications.
	DalyPeriod = workload.DalyPeriod
	// CheckpointApp builds the periodic application induced by optimal
	// checkpointing.
	CheckpointApp = workload.CheckpointApp
)

// Experiments: the per-table/figure reproduction registry.
type (
	// Experiment reproduces one table or figure of the paper.
	Experiment = experiments.Experiment
	// ExperimentConfig scales an experiment run.
	ExperimentConfig = experiments.Config
	// ReportDocument is a rendered experiment result.
	ReportDocument = report.Document
)

// Experiment registry accessors.
var (
	// Experiments returns all registered experiments sorted by ID.
	Experiments = experiments.All
	// ExperimentByID looks one up ("fig8", "table1", ...).
	ExperimentByID = experiments.Get
)

// Trace replay: evaluate the scheduler on recorded machine traces.
type (
	// ReplayOptions configures a trace replay analysis.
	ReplayOptions = replay.Options
	// ReplayResult is a full trace analysis.
	ReplayResult = replay.Result
)

// ReplayTrace finds a trace's congested windows and replays them under the
// baseline and the heuristics.
var ReplayTrace = replay.Analyze
