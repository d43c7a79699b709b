package experiments

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/periodic"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The experiments in this file go beyond the paper's figures: they probe
// the design choices the paper leaves open (the MinMax threshold, the
// Priority constraint, burst-buffer sizing, the Insert-In-Schedule-Throu
// sort order) and the paper's stated future work (periodic vs online
// schedules, Section 7).

func init() {
	register(Experiment{
		ID:    "ablation-gamma",
		Title: "MinMax-γ threshold sweep: the efficiency/fairness frontier",
		Paper: "extends Figure 9",
		Run:   runAblationGamma,
	})
	register(Experiment{
		ID:    "ablation-priority",
		Title: "Cost of the Priority (disk-locality) constraint",
		Paper: "Section 3.1 discussion",
		Run:   runAblationPriority,
	})
	register(Experiment{
		ID:    "ablation-bb",
		Title: "Burst-buffer capacity sweep under the production scheduler",
		Paper: "Section 1 claim: burst buffers cannot prevent congestion at all times",
		Run:   runAblationBB,
	})
	register(Experiment{
		ID:    "ablation-throu-order",
		Title: "Insert-In-Schedule-Throu sort order (as-written vs reversed)",
		Paper: "Section 3.2, Insert-In-Schedule-Throu",
		Run:   runAblationThrouOrder,
	})
	register(Experiment{
		ID:    "periodic-vs-online",
		Title: "Periodic schedules vs online heuristics on periodic mixes",
		Paper: "Section 7 (future work)",
		Run:   runPeriodicVsOnline,
	})
	register(Experiment{
		ID:    "ablation-timeout",
		Title: "Wait-time control: bounding request stalls with the Timeout wrapper",
		Paper: "Section 2.1 (I/O system time-out discussion)",
		Run:   runAblationTimeout,
	})
	register(Experiment{
		ID:    "ablation-shared-network",
		Title: "Shared I/O + communication network (Blue Waters style)",
		Paper: "Section 7 (conclusion discussion)",
		Run:   runAblationSharedNetwork,
	})
}

// runAblationSharedNetwork reruns representative Vesta scenarios on a
// machine whose interconnect carries both messages and I/O: message
// latencies inflate with file-system utilization. The paper's conclusion
// argues the scheduler still helps on such machines; this quantifies it.
func runAblationSharedNetwork(cfg Config) (*Document, error) {
	params := ior.QuickParams()
	if !cfg.Quick {
		params = ior.DefaultParams()
	}
	scenarios := []string{"256", "256/256", "256/256/512", "512/512/512/512"}
	tbl := &report.Table{
		Title:   "Scheduled (Priority-MaxSysEff) vs congested IOR, dedicated vs shared network",
		Columns: []string{"sched eff", "IOR eff", "sched dil", "IOR dil"},
		Notes: []string{
			"shared rows inflate message latencies by (1 + 4·utilization)",
			"the scheduler's advantage must survive the shared network (paper §7)",
		},
	}
	for _, shared := range []bool{false, true} {
		for _, name := range scenarios {
			sc, err := ior.ParseScenario(name)
			if err != nil {
				return nil, err
			}
			run := func(mode cluster.Mode, pol core.Scheduler) (metrics.Summary, error) {
				res, err := cluster.Run(cluster.Config{
					Platform:      platform.Vesta(),
					Mode:          mode,
					Policy:        pol,
					Apps:          sc.Apps(params),
					Seed:          cfg.Seed,
					SharedNetwork: shared,
					NetContention: 4,
				})
				if err != nil {
					return metrics.Summary{}, fmt.Errorf("%s shared=%v: %w", name, shared, err)
				}
				return res.Summary, nil
			}
			sched, err := run(cluster.Scheduled, core.MaxSysEff().WithPriority())
			if err != nil {
				return nil, err
			}
			congested, err := run(cluster.OriginalIOR, nil)
			if err != nil {
				return nil, err
			}
			label := name + " (dedicated)"
			if shared {
				label = name + " (shared)"
			}
			tbl.AddRow(label, sched.SysEfficiency, congested.SysEfficiency,
				sched.Dilation, congested.Dilation)
		}
	}
	return &Document{ID: "ablation-shared-network", Title: "Shared-network machines",
		Tables: []*report.Table{tbl}}, nil
}

// runAblationTimeout measures the longest time any application's request
// stalls without bandwidth, with and without the Timeout promotion, on the
// Intrepid congested moments. The paper notes the scheduler must keep
// waits below the I/O system's timeout; this quantifies what that costs.
func runAblationTimeout(cfg Config) (*Document, error) {
	set := intrepidSet(cfg)
	moments := workload.IntrepidMoments(set.n, set.setSeed)
	type schedDef struct {
		label string
		build func() core.Scheduler
	}
	defs := []schedDef{
		{"MaxSysEff", func() core.Scheduler { return core.MaxSysEff() }},
		{"Timeout-120(MaxSysEff)", func() core.Scheduler { return core.NewTimeout(core.MaxSysEff(), 120) }},
		{"Timeout-60(MaxSysEff)", func() core.Scheduler { return core.NewTimeout(core.MaxSysEff(), 60) }},
		{"Timeout-30(MaxSysEff)", func() core.Scheduler { return core.NewTimeout(core.MaxSysEff(), 30) }},
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Longest request stall over %d Intrepid moments", len(moments)),
		Columns: []string{"max stall (s)", "mean max stall (s)", "Dilation", "SysEfficiency"},
		Notes: []string{
			"stall = contiguous pending time of one request without any bandwidth",
			"the wrapper promotes requests older than its window, bounding stalls at a small efficiency cost",
		},
	}
	for _, def := range defs {
		type out struct {
			maxStall float64
			sum      metrics.Summary
		}
		rows, err := parallel.Map(len(moments), cfg.Workers, func(i int) (out, error) {
			tr := &sim.Trace{}
			res, err := sim.Run(sim.Config{
				Platform:  moments[i].Platform.WithoutBB(),
				Scheduler: def.build(),
				Apps:      moments[i].Apps,
				Trace:     tr,
			})
			if err != nil {
				return out{}, fmt.Errorf("%s under %s: %w", moments[i].Name, def.label, err)
			}
			return out{maxStall: longestStall(tr), sum: res.Summary}, nil
		})
		if err != nil {
			return nil, err
		}
		var stalls metrics.Sample
		var sums []metrics.Summary
		for _, r := range rows {
			stalls = append(stalls, r.maxStall)
			sums = append(sums, r.sum)
		}
		mean := metrics.MeanSummary(sums)
		tbl.AddRow(def.label, stalls.Max(), stalls.Mean(), mean.Dilation, mean.SysEfficiency)
	}
	return &Document{ID: "ablation-timeout", Title: "Bounding request wait times",
		Tables: []*report.Table{tbl}}, nil
}

// longestStall returns the longest contiguous Pending interval of any
// application in the trace (merged segments are already maximal).
func longestStall(tr *sim.Trace) float64 {
	longest := 0.0
	for _, s := range tr.Segments {
		if s.Phase == core.Pending {
			if d := s.End - s.Start; d > longest {
				longest = d
			}
		}
	}
	return longest
}

// runAblationGamma sweeps the MinMax threshold across the Intrepid moment
// set, tracing the trade-off curve between the two pure objectives.
func runAblationGamma(cfg Config) (*Document, error) {
	m := intrepidSet(cfg)
	gammas := []float64{0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1}
	names := make([]string, len(gammas))
	for i, g := range gammas {
		names[i] = core.MinMax(g).Name()
	}
	res, err := runSpec(cfg, m.spec(m.n, names, campaign.SimOptions{}))
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("MinMax-γ sweep over %d Intrepid moments", m.n),
		Columns: []string{"gamma", "Dilation", "SysEfficiency"},
		Notes: []string{
			"γ=0 is exactly MaxSysEff, γ=1 exactly MinDilation",
			"expected: Dilation decreases and SysEfficiency decreases as γ grows",
		},
	}
	for i, g := range gammas {
		mean := groupOf(res, m.preset, momentsWorkload, names[i])
		tbl.AddRow(names[i], g, mean.Dilation, mean.SysEfficiency)
	}
	return &Document{ID: "ablation-gamma", Title: "MinMax threshold sweep",
		Tables: []*report.Table{tbl}}, nil
}

// runAblationPriority quantifies what the Priority constraint costs (or
// saves) per heuristic on both machines' moment sets.
func runAblationPriority(cfg Config) (*Document, error) {
	doc := &Document{ID: "ablation-priority", Title: "Priority constraint cost"}
	bases := []string{"MaxSysEff", "MinMax-0.5", "MinDilation"}
	scheds := []string{"MaxSysEff", "Priority-MaxSysEff", "MinMax-0.5", "Priority-MinMax-0.5",
		"MinDilation", "Priority-MinDilation"}
	for _, m := range []momentSet{intrepidSet(cfg), miraSet(cfg)} {
		res, err := runSpec(cfg, m.spec(m.n, scheds, campaign.SimOptions{}))
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("Priority deltas on %s (%d moments)", m.machine, m.n),
			Columns: []string{"ΔDilation", "ΔSysEfficiency"},
			Notes:   []string{"delta = Priority variant − plain variant; positive ΔSysEfficiency means Priority helped"},
		}
		for _, base := range bases {
			plain := groupOf(res, m.preset, momentsWorkload, base)
			prio := groupOf(res, m.preset, momentsWorkload, "Priority-"+base)
			tbl.AddRow(base, prio.Dilation-plain.Dilation, prio.SysEfficiency-plain.SysEfficiency)
		}
		doc.Tables = append(doc.Tables, tbl)
	}
	return doc, nil
}

// runAblationBB sweeps the burst-buffer capacity under the production
// scheduler on the Intrepid moments: small buffers saturate and stop
// helping, which is the paper's opening observation. The capacities are
// the platform axis of one burst-buffer campaign.
func runAblationBB(cfg Config) (*Document, error) {
	m := intrepidSet(cfg)
	bb := platform.Intrepid().BurstBuffer
	noBB, err := runSpec(cfg, m.spec(m.n, []string{machineScheduler}, campaign.SimOptions{}))
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Burst-buffer capacity sweep, fair-share baseline, %d Intrepid moments", m.n),
		Columns: []string{"Dilation", "SysEfficiency"},
		Notes:   []string{fmt.Sprintf("base capacity %.0f GiB; ingest fixed at %.0f GiB/s", bb.Capacity, bb.IngestBW)},
	}
	g := groupOf(noBB, m.preset, momentsWorkload, machineScheduler)
	tbl.AddRow("no BB", g.Dilation, g.SysEfficiency)

	spec := m.spec(m.n, []string{machineScheduler}, campaign.SimOptions{UseBB: true})
	spec.Platforms = nil
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		spec.Platforms = append(spec.Platforms, campaign.PlatformSpec{
			Preset:      m.preset,
			Name:        fmt.Sprintf("%.2gx capacity", mult),
			BurstBuffer: &campaign.BurstBufferSpec{CapacityGiB: bb.Capacity * mult, IngestBW: bb.IngestBW},
		})
	}
	withBB, err := runSpec(cfg, spec)
	if err != nil {
		return nil, err
	}
	for _, ps := range spec.Platforms {
		g := groupOf(withBB, ps.Name, momentsWorkload, machineScheduler)
		tbl.AddRow(ps.Name, g.Dilation, g.SysEfficiency)
	}
	return &Document{ID: "ablation-bb", Title: "Burst-buffer capacity sweep",
		Tables: []*report.Table{tbl}}, nil
}

// runAblationThrouOrder compares the paper's literal Insert-In-Schedule-
// Throu sort order with the reversed one on random periodic mixes.
func runAblationThrouOrder(cfg Config) (*Document, error) {
	n := cfg.replicates() / 2
	if n < 5 {
		n = 5
	}
	type pair struct{ asWritten, reversed float64 }
	rows, err := parallel.Map(n, cfg.Workers, func(rep int) (pair, error) {
		p, apps := periodicMix(cfg.Seed + int64(rep)*13)
		tmax := 20 * maxInstanceLen(p, apps)
		var out pair
		for _, desc := range []bool{false, true} {
			best := math.Inf(-1)
			for T := maxInstanceLen(p, apps); T <= tmax; T *= 1.1 {
				s, err := periodic.BuildThrou(p, apps, T, desc)
				if err != nil {
					return out, err
				}
				if eff := s.SysEfficiency(); eff > best {
					best = eff
				}
			}
			if desc {
				out.reversed = best
			} else {
				out.asWritten = best
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var asWritten, reversed metrics.Sample
	for _, r := range rows {
		asWritten = append(asWritten, r.asWritten)
		reversed = append(reversed, r.reversed)
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Insert-In-Schedule-Throu sort order over %d mixes", n),
		Columns: []string{"mean SysEfficiency", "min", "max"},
		Notes:   []string{"'as written' sorts by non-decreasing w/time_io (paper text); 'reversed' by non-increasing"},
	}
	tbl.AddRow("as written", asWritten.Mean(), asWritten.Min(), asWritten.Max())
	tbl.AddRow("reversed", reversed.Mean(), reversed.Min(), reversed.Max())
	return &Document{ID: "ablation-throu-order", Title: "Periodic insertion order ablation",
		Tables: []*report.Table{tbl}}, nil
}

// runPeriodicVsOnline addresses the paper's future work: on fully periodic
// mixes, how do the offline periodic schedules compare with the online
// heuristics?
func runPeriodicVsOnline(cfg Config) (*Document, error) {
	n := cfg.replicates() / 4
	if n < 5 {
		n = 5
	}
	type row struct{ thrEff, congEff, congDil, onEffEff, onEffDil, onDilEff, onDilDil float64 }
	rows, err := parallel.Map(n, cfg.Workers, func(rep int) (row, error) {
		p, apps := periodicMix(cfg.Seed + int64(rep)*13)
		var out row

		tmax := 20 * maxInstanceLen(p, apps)
		thr, err := periodic.SearchPeriod(p, apps, periodic.HeuristicThrou, tmax, 0.1)
		if err != nil {
			return out, err
		}
		out.thrEff = thr.BestSysEff
		cong, err := periodic.SearchPeriod(p, apps, periodic.HeuristicCong, tmax, 0.1)
		if err != nil {
			return out, err
		}
		out.congEff, out.congDil = cong.BestSysEff, cong.BestDilation

		// Online execution of the same mix, many instances so the
		// steady state dominates.
		longApps := make([]*platform.App, len(apps))
		for i, a := range apps {
			longApps[i] = platform.NewPeriodic(a.ID, a.Nodes, a.Instances[0].Work, a.Instances[0].Volume, 30)
		}
		onEff, err := sim.Run(sim.Config{Platform: p, Scheduler: core.MaxSysEff(), Apps: longApps})
		if err != nil {
			return out, err
		}
		out.onEffEff, out.onEffDil = onEff.Summary.SysEfficiency, onEff.Summary.Dilation
		// The simulator never mutates its applications, so both runs share them.
		onDil, err := sim.Run(sim.Config{Platform: p, Scheduler: core.MinDilation(), Apps: longApps})
		if err != nil {
			return out, err
		}
		out.onDilEff, out.onDilDil = onDil.Summary.SysEfficiency, onDil.Summary.Dilation
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	mean := func(pick func(row) float64) float64 {
		var s metrics.Sample
		for _, r := range rows {
			s = append(s, pick(r))
		}
		return s.Mean()
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Periodic vs online over %d periodic mixes", n),
		Columns: []string{"SysEfficiency", "Dilation"},
		Notes: []string{
			"periodic rows are steady-state objectives of the built timetable;",
			"online rows simulate 30 instances per application",
		},
	}
	tbl.AddRow("periodic Insert-Throu", mean(func(r row) float64 { return r.thrEff }), math.NaN())
	tbl.AddRow("periodic Insert-Cong", mean(func(r row) float64 { return r.congEff }),
		mean(func(r row) float64 { return r.congDil }))
	tbl.AddRow("online MaxSysEff", mean(func(r row) float64 { return r.onEffEff }),
		mean(func(r row) float64 { return r.onEffDil }))
	tbl.AddRow("online MinDilation", mean(func(r row) float64 { return r.onDilEff }),
		mean(func(r row) float64 { return r.onDilDil }))
	return &Document{ID: "periodic-vs-online", Title: "Periodic vs online schedules",
		Tables: []*report.Table{tbl}}, nil
}

// periodicMix draws a small machine-scale periodic application set used
// by the periodic-schedule studies.
func periodicMix(seed int64) (*platform.Platform, []*platform.App) {
	p := &platform.Platform{Name: "periodic-study", Nodes: 512, NodeBW: 0.25, TotalBW: 16}
	cfgApps, err := workload.Generate(workload.Config{
		Platform: p,
		Seed:     seed,
		Specs:    []workload.Spec{{Count: 6, Category: workload.Small}},
		IORatio:  0.25,
		WMin:     50, WMax: 200,
		MinInstances: 1,
		TargetTime:   1, // one instance each; the builders replicate
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: periodic mix generation: %v", err))
	}
	apps := make([]*platform.App, len(cfgApps))
	for i, a := range cfgApps {
		apps[i] = platform.NewPeriodic(a.ID, a.Nodes, a.Instances[0].Work, a.Instances[0].Volume, 1)
	}
	return p, apps
}

func maxInstanceLen(p *platform.Platform, apps []*platform.App) float64 {
	longest := 0.0
	for _, a := range apps {
		if l := a.Instances[0].Work + a.IOTime(p, 0); l > longest {
			longest = l
		}
	}
	return longest
}
