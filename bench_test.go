// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation studies. Each benchmark iteration runs
// the full experiment pipeline (workload generation, simulation or
// cluster emulation across all schedulers, aggregation) at reduced
// replicate counts; run `cmd/iosim -run all` for the paper-scale version.
//
//	go test -bench=. -benchmem
package iosched_test

import (
	"fmt"
	"io"
	"testing"

	iosched "repro"
	"repro/internal/experiments"
)

// benchExperiment runs one registry entry per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(doc.Tables)+len(doc.Figures) == 0 {
			b.Fatalf("%s produced an empty document", id)
		}
	}
}

// One benchmark per paper artifact (DESIGN.md §3).

func BenchmarkFig1Throughput(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig5Workload(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6aHeuristics(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6bHeuristics(b *testing.B)      { benchExperiment(b, "fig6b") }
func BenchmarkFig6cHeuristics(b *testing.B)      { benchExperiment(b, "fig6c") }
func BenchmarkFig7Sensibility(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8Intrepid(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9MinMax(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10NonPriority(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Mira(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12MinMaxMira(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13NonPriorityMira(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkTable1Intrepid(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Mira(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkFig14Overhead(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15Vesta(b *testing.B)           { benchExperiment(b, "fig15") }
func BenchmarkFig16PerApp(b *testing.B)          { benchExperiment(b, "fig16") }

// Ablation and extension benches (DESIGN.md §5).

func BenchmarkAblationGamma(b *testing.B)      { benchExperiment(b, "ablation-gamma") }
func BenchmarkAblationPriority(b *testing.B)   { benchExperiment(b, "ablation-priority") }
func BenchmarkAblationBB(b *testing.B)         { benchExperiment(b, "ablation-bb") }
func BenchmarkAblationThrouOrder(b *testing.B) { benchExperiment(b, "ablation-throu-order") }
func BenchmarkAblationTimeout(b *testing.B)    { benchExperiment(b, "ablation-timeout") }
func BenchmarkAblationSharedNet(b *testing.B)  { benchExperiment(b, "ablation-shared-network") }
func BenchmarkPeriodicVsOnline(b *testing.B)   { benchExperiment(b, "periodic-vs-online") }
func BenchmarkVerifyClaims(b *testing.B)       { benchExperiment(b, "verify") }

// Component benchmarks: the scheduling hot path and both execution
// engines, independent of the experiment harness.

func BenchmarkSimulateCongestedMoment(b *testing.B) {
	moment := iosched.IntrepidMoments(1, 7)[0]
	sched := iosched.MaxSysEff().WithPriority()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := iosched.Simulate(iosched.SimConfig{
			Platform:  moment.Platform.WithoutBB(),
			Scheduler: sched,
			Apps:      moment.Apps,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Dilation < 1 {
			b.Fatal("dilation below 1")
		}
	}
}

// BenchmarkSimFig6Cell is one campaign cell of the Figure 6 sweep — the
// system's dominant hot path after PR 1 fanned sweeps out over thousands
// of cells. It also reports the event-kernel engine's decision economy:
// scheduler invocations and skipped decision points per run.
func BenchmarkSimFig6Cell(b *testing.B) {
	wcfg := iosched.Fig6Workload(iosched.Fig6B, 7)
	apps, err := iosched.GenerateWorkload(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	sched := iosched.MaxSysEff()
	b.ReportAllocs()
	b.ResetTimer()
	var decisions, skipped int
	for i := 0; i < b.N; i++ {
		res, err := iosched.Simulate(iosched.SimConfig{
			Platform:  wcfg.Platform.WithoutBB(),
			Scheduler: sched,
			Apps:      apps,
		})
		if err != nil {
			b.Fatal(err)
		}
		decisions, skipped = res.Decisions, res.Skipped
	}
	b.ReportMetric(float64(decisions), "decisions/run")
	b.ReportMetric(float64(skipped), "skipped/run")
}

// BenchmarkFig6aTraced is the fig6a cell with the decision-trace layer
// attached and streaming JSONL to a discarded writer — the full cost of
// observing every decision point (candidate-view capture + JSON encode).
// Compare against BenchmarkSimFig6Cell to price the tracing overhead;
// the disabled-path cost is zero by construction (every capture is
// nil-gated) and pinned by the daemon's allocation-free round test.
func BenchmarkFig6aTraced(b *testing.B) {
	wcfg := iosched.Fig6Workload(iosched.Fig6A, 7)
	apps, err := iosched.GenerateWorkload(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	sched := iosched.MaxSysEff()
	w := iosched.NewDecisionWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	var points int
	for i := 0; i < b.N; i++ {
		res, err := iosched.Simulate(iosched.SimConfig{
			Platform:      wcfg.Platform.WithoutBB(),
			Scheduler:     sched,
			Apps:          apps,
			DecisionTrace: w,
		})
		if err != nil {
			b.Fatal(err)
		}
		points = res.Decisions + res.Skipped
	}
	b.StopTimer()
	if err := w.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(points), "points/run")
}

// BenchmarkFig6aTelemetry prices the telemetry layer on the fig6a cell:
// the "on" variant attaches a probe with a bounded ring (MinInterval 0,
// so every event instant is sampled — the worst case), the "off" variant
// runs the identical simulation with a nil probe. "off" must match the
// untelemetered cell baseline within the benchgate tolerance — that is
// the enforced form of the "disabled telemetry is free" claim — and "on"
// must stay allocation-identical to "off" once the ring is warm (the
// probe is reused across iterations, so the ring allocates only on the
// first run).
func BenchmarkFig6aTelemetry(b *testing.B) {
	wcfg := iosched.Fig6Workload(iosched.Fig6A, 7)
	apps, err := iosched.GenerateWorkload(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	sched := iosched.MaxSysEff()
	run := func(b *testing.B, probe *iosched.TelemetryProbe) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var points int
		for i := 0; i < b.N; i++ {
			res, err := iosched.Simulate(iosched.SimConfig{
				Platform:  wcfg.Platform.WithoutBB(),
				Scheduler: sched,
				Apps:      apps,
				Telemetry: probe,
			})
			if err != nil {
				b.Fatal(err)
			}
			if probe != nil {
				points = len(res.Telemetry.Points)
			}
		}
		if probe != nil {
			b.ReportMetric(float64(points), "points/run")
		}
	}
	b.Run("on", func(b *testing.B) {
		run(b, &iosched.TelemetryProbe{MaxPoints: 4096})
	})
	b.Run("off", func(b *testing.B) {
		run(b, nil)
	})
}

// BenchmarkFig6aHealth prices the health layer on the fig6a cell: the
// "on" variant attaches a monitor (default thresholds) observing every
// decision point, the "off" variant runs the identical simulation with
// a nil monitor. "off" must match the unmonitored cell baseline within
// the benchgate tolerance — the enforced form of the "disabled health
// is free" claim. Unlike the telemetry probe, a monitor is per-run
// state (detector clocks follow the engine clock), so "on" builds a
// fresh one each iteration exactly as the campaign runner does; its
// cost therefore includes monitor construction plus the evidence
// strings of the firing transitions this cell genuinely triggers.
func BenchmarkFig6aHealth(b *testing.B) {
	wcfg := iosched.Fig6Workload(iosched.Fig6A, 7)
	apps, err := iosched.GenerateWorkload(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	sched := iosched.MaxSysEff()
	run := func(b *testing.B, mon func() *iosched.HealthMonitor) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var anomalies int
		for i := 0; i < b.N; i++ {
			cfg := iosched.SimConfig{
				Platform:  wcfg.Platform.WithoutBB(),
				Scheduler: sched,
				Apps:      apps,
			}
			if mon != nil {
				cfg.Health = mon()
			}
			res, err := iosched.Simulate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if mon != nil {
				anomalies = res.Anomalies
			}
		}
		if mon != nil {
			b.ReportMetric(float64(anomalies), "anomalies")
		}
	}
	b.Run("on", func(b *testing.B) {
		run(b, func() *iosched.HealthMonitor { return iosched.NewHealthMonitor(iosched.HealthConfig{}) })
	})
	b.Run("off", func(b *testing.B) {
		run(b, nil)
	})
}

// population100k builds the scaled synthetic population behind
// BenchmarkFig6a100k: the fig6a periodic shape (compute phase, then one
// bulk write) pushed three orders of magnitude past the paper's Figure 6
// populations, as ROADMAP open item 4 demands. The population is grouped
// into cohorts that release together and stay in flight concurrently —
// at the peak, half the population is in I/O at once — so the benchmark
// exercises exactly the structures that wall at this scale: candidate-set
// membership maintenance, the timer heap, and the per-event sweeps. The
// platform is provisioned so the aggregate demand stays within capacity
// (the Saturating fast path carries the rounds, as a well-provisioned
// deployment would), keeping the measured cost the engine's own overhead
// rather than policy sorting.
func population100k(nApps, cohorts int) (*iosched.Platform, []*iosched.App) {
	const nodesPerApp = 64
	p := &iosched.Platform{
		Name:    "scale-bench",
		Nodes:   nApps*nodesPerApp + 1,
		NodeBW:  0.0125,
		TotalBW: float64(nApps) * nodesPerApp * 0.0125 * 1.25,
	}
	size := nApps / cohorts
	apps := make([]*iosched.App, 0, nApps)
	for c := 0; c < cohorts; c++ {
		work := 100 + 10*float64(c)
		for i := 0; i < size; i++ {
			apps = append(apps, iosched.NewPeriodicApp(c*size+i, nodesPerApp, work, 80, 1))
		}
	}
	return p, apps
}

// BenchmarkFig6a100k is the population-scale throughput benchmark: one
// complete simulation of 100k applications (20 cohorts of 5k, peak 50k
// concurrent candidates). It is recorded in BENCH_baseline.json and gated
// by cmd/benchgate; a reintroduced O(n) per-membership-change candidate
// list (the pre-SoA layout) regresses it by well over an order of
// magnitude.
func BenchmarkFig6a100k(b *testing.B) {
	p, apps := population100k(100_000, 20)
	sched := iosched.MaxSysEff()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := iosched.Simulate(iosched.SimConfig{
			Platform:  p,
			Scheduler: sched,
			Apps:      apps,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Dilation < 1 {
			b.Fatal("dilation below 1")
		}
	}
}

// BenchmarkSim100kSetup times what a 100k-application run pays before its
// event loop: validation, construction (arena, bulk-armed release timers)
// and the t = 0 release instant, ended by the snapshot copy. It gives setup
// cost its own gated line next to BenchmarkFig6a100k, so a per-application
// allocation creeping back into construction shows up here at full size
// instead of diluted in the whole run.
func BenchmarkSim100kSetup(b *testing.B) {
	p, apps := population100k(100_000, 20)
	cfg := iosched.SimConfig{Platform: p, Scheduler: iosched.MaxSysEff(), Apps: apps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := iosched.SimulateToSnapshot(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Apps) != len(apps) {
			b.Fatal("snapshot lost applications")
		}
	}
}

func BenchmarkEmulateVestaScenario(b *testing.B) {
	for _, ranks := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := iosched.Emulate(iosched.ClusterConfig{
					Platform: iosched.Vesta(),
					Mode:     iosched.Scheduled,
					Policy:   iosched.MaxSysEff(),
					Apps: []iosched.IORGroup{
						{ID: 0, Name: "a", Ranks: ranks / 2, Iterations: 5, Work: 2, BlockGiB: 0.1},
						{ID: 1, Name: "b", Ranks: ranks / 2, Iterations: 5, Work: 2, BlockGiB: 0.1},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPeriodSearch(b *testing.B) {
	machine := &iosched.Platform{Name: "bench", Nodes: 512, NodeBW: 0.25, TotalBW: 16}
	apps := []*iosched.App{
		iosched.NewPeriodicApp(0, 100, 50, 30, 1),
		iosched.NewPeriodicApp(1, 150, 120, 80, 1),
		iosched.NewPeriodicApp(2, 80, 200, 60, 1),
		iosched.NewPeriodicApp(3, 120, 90, 45, 1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := iosched.SearchPeriod(machine, apps, iosched.InsertCong, 3000, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Schedule == nil {
			b.Fatal("no schedule")
		}
	}
}
