package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "I/O throughput decrease per application under congestion",
		Paper: "Figure 1",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Workload characteristics by application category",
		Paper: "Figure 5",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6a",
		Title: "Heuristic objectives: 10 large applications, I/O ratio 20%",
		Paper: "Figure 6a",
		Run:   fig6Runner(workload.Fig6A),
	})
	register(Experiment{
		ID:    "fig6b",
		Title: "Heuristic objectives: 50 small + 5 large, I/O ratio 20%",
		Paper: "Figure 6b",
		Run:   fig6Runner(workload.Fig6B),
	})
	register(Experiment{
		ID:    "fig6c",
		Title: "Heuristic objectives: 50 small + 5 large, I/O ratio 35%",
		Paper: "Figure 6c",
		Run:   fig6Runner(workload.Fig6C),
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Impact of computation sensibility on both objectives",
		Paper: "Figure 7",
		Run:   runFig7,
	})
}

// runFig1 reproduces Figure 1: the distribution of per-application I/O
// throughput decrease when congestion is resolved by the baseline
// scheduler, over a population of at least 400 applications.
func runFig1(cfg Config) (*Document, error) {
	nMoments := 12
	if cfg.Quick {
		nMoments = 4
	}
	moments := workload.IntrepidMoments(nMoments, 100+cfg.Seed)
	perMoment, err := parallel.Map(len(moments), cfg.Workers, func(i int) ([]float64, error) {
		m := moments[i]
		res, err := sim.Run(sim.Config{
			Platform:  m.Platform.WithoutBB(),
			Scheduler: core.FairShare{},
			Apps:      m.Apps,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		return metrics.ThroughputDecrease(res.Apps), nil
	})
	if err != nil {
		return nil, err
	}
	var all metrics.Sample
	for _, d := range perMoment {
		all = append(all, d...)
	}

	const bins = 10
	counts := all.Histogram(0, 10, bins)
	hist := report.Series{Name: "applications"}
	for b := 0; b < bins; b++ {
		hist.X = append(hist.X, float64(b*10))
		hist.Y = append(hist.Y, float64(counts[b]))
	}
	doc := &Document{ID: "fig1", Title: "I/O throughput decrease under congestion"}
	doc.Figures = append(doc.Figures, &report.Figure{
		Title:  "Histogram of per-application I/O throughput decrease",
		XLabel: "decrease bin (%)",
		YLabel: "applications",
		Series: []report.Series{hist},
		Notes: []string{fmt.Sprintf("%d applications across %d congested windows", len(all), nMoments),
			"paper reports decreases up to ~70% on Intrepid"},
	})
	stats := &report.Table{
		Title:   "Throughput decrease statistics (%)",
		Columns: []string{"mean", "p50", "p90", "max"},
	}
	stats.AddRow("decrease", all.Mean(), all.Percentile(50), all.Percentile(90), all.Max())
	doc.Tables = append(doc.Tables, stats)
	return doc, nil
}

// runFig5 reproduces the Figure 5 workload characterization: category
// counts, platform usage share, and time fraction spent in I/O for a
// synthetic year of Intrepid jobs.
func runFig5(cfg Config) (*Document, error) {
	p := platform.Intrepid()
	days := 60
	if cfg.Quick {
		days = 10
	}
	var recs []trace.JobRecord
	jobID := 0
	for day := 0; day < days; day++ {
		apps, err := workload.Generate(workload.Config{
			Platform: p,
			Seed:     cfg.Seed + int64(day)*17 + 500,
			Specs: []workload.Spec{
				{Count: 40, Category: workload.Small},
				{Count: 5, Category: workload.Large},
				{Count: 1, Category: workload.VeryLarge},
			},
			IORatio:       0.2,
			IORatioSpread: 0.6,
			Fill:          0.95,
		})
		if err != nil {
			return nil, err
		}
		for _, a := range apps {
			a.Release += float64(day) * 86400
			rec := trace.FromApp(a, jobID, a.Release+a.DedicatedTime(p))
			recs = append(recs, rec)
			jobID++
		}
	}

	type agg struct {
		count     int
		nodeHours float64
		ioFrac    metrics.Sample
	}
	perCat := map[workload.Category]*agg{
		workload.Small: {}, workload.Large: {}, workload.VeryLarge: {},
	}
	var totalNodeHours float64
	for _, r := range recs {
		c := workload.Categorize(r.Nodes)
		a := perCat[c]
		a.count++
		nh := float64(r.Nodes) * (r.End - r.Start) / 3600
		a.nodeHours += nh
		totalNodeHours += nh
		a.ioFrac = append(a.ioFrac, 100*r.IOFraction(p))
	}

	tbl := &report.Table{
		Title:   fmt.Sprintf("Synthetic Intrepid workload over %d days (%d jobs)", days, len(recs)),
		Columns: []string{"jobs", "usage share %", "mean I/O time %", "p90 I/O time %"},
		Notes:   []string{"categories: small < 1285 nodes, large 1285-4584, very large > 4584"},
	}
	for _, c := range []workload.Category{workload.Small, workload.Large, workload.VeryLarge} {
		a := perCat[c]
		share := 0.0
		if totalNodeHours > 0 {
			share = 100 * a.nodeHours / totalNodeHours
		}
		tbl.AddRow(c.String(), float64(a.count), share, a.ioFrac.Mean(), a.ioFrac.Percentile(90))
	}
	return &Document{
		ID:     "fig5",
		Title:  "Workload characteristics (Darshan-style)",
		Tables: []*report.Table{tbl},
	}, nil
}

// fig6Spec declares one Figure 6 panel as a campaign: the eight online
// heuristics on Intrepid over n seeded replicate mixes. The seed range
// reproduces the replicate seeding of the original hand-wired driver
// (seed + 31·rep + 7), so the numbers are unchanged.
func fig6Spec(kind workload.Fig6Kind, seed int64, n int) *campaign.Spec {
	id := map[workload.Fig6Kind]string{
		workload.Fig6A: "fig6a", workload.Fig6B: "fig6b", workload.Fig6C: "fig6c",
	}[kind]
	var scheds []string
	for _, s := range core.AllHeuristics() {
		scheds = append(scheds, s.Name())
	}
	return &campaign.Spec{
		Name:        id,
		Description: kind.String(),
		Platforms:   []campaign.PlatformSpec{{Preset: "intrepid"}},
		Schedulers:  scheds,
		Workloads:   []campaign.WorkloadSpec{{Name: id, Scenario: id}},
		Seeds:       campaign.SeedRange{Start: seed + 7, Stride: 31, Count: n},
	}
}

// fig6Runner builds the runner for one Figure 6 panel on top of the
// campaign engine: the panel is just a (heuristic × seed) grid on one
// platform, reduced over the seed axis.
func fig6Runner(kind workload.Fig6Kind) Runner {
	return func(cfg Config) (*Document, error) {
		n := cfg.replicates()
		spec := fig6Spec(kind, cfg.Seed, n)
		res, err := runSpec(cfg, spec)
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%v — mean over %d mixes", kind, n),
			Columns: []string{"SysEfficiency", "±95%", "Dilation", "±95%"},
		}
		for _, sched := range core.AllHeuristics() {
			g := groupOf(res, "intrepid", spec.Name, sched.Name())
			tbl.AddRow(sched.Name(), g.SysEfficiency, g.SysEfficiencyCI95, g.Dilation, g.DilationCI95)
		}
		return &Document{ID: spec.Name, Title: kind.String(), Tables: []*report.Table{tbl}}, nil
	}
}

// runFig7 reproduces the sensibility study: objectives of the three main
// heuristics as per-instance work variability grows from 0 to 30%.
func runFig7(cfg Config) (*Document, error) {
	sens := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	n := cfg.replicates()
	// The Figure 6b mix (workload.Fig6Config) with one workload per work
	// sensibility, over replicate mixes seeded as in fig6Spec.
	spec := &campaign.Spec{
		Name:       "fig7",
		Platforms:  []campaign.PlatformSpec{{Preset: "intrepid"}},
		Schedulers: []string{"MinDilation", "MaxSysEff", "MinMax-0.5"},
		Seeds:      campaign.SeedRange{Start: cfg.Seed + 7, Stride: 31, Count: n},
	}
	for _, x := range sens {
		spec.Workloads = append(spec.Workloads, campaign.WorkloadSpec{
			Name: fmt.Sprintf("sens-%g", x),
			Generator: &campaign.GeneratorSpec{
				Groups:         []campaign.GroupSpec{{Count: 50, Category: "small"}, {Count: 5, Category: "large"}},
				IORatio:        0.20,
				IORatioSpread:  0.75,
				WMinS:          200,
				WMaxS:          1000,
				SensW:          x,
				TargetTimeS:    8000,
				ReleaseSpreadS: 50,
			},
		})
	}
	res, err := runSpec(cfg, spec)
	if err != nil {
		return nil, err
	}

	dil := &report.Figure{
		Title:  "Dilation vs computation sensibility",
		XLabel: "sensibility %",
		YLabel: "Dilation",
	}
	eff := &report.Figure{
		Title:  "SysEfficiency vs computation sensibility",
		XLabel: "sensibility %",
		YLabel: "SysEfficiency",
	}
	for _, sched := range spec.Schedulers {
		ds := report.Series{Name: sched}
		es := report.Series{Name: sched}
		for i, x := range sens {
			g := groupOf(res, "intrepid", spec.Workloads[i].Name, sched)
			ds.X = append(ds.X, 100*x)
			ds.Y = append(ds.Y, g.Dilation)
			es.X = append(es.X, 100*x)
			es.Y = append(es.Y, g.SysEfficiency)
		}
		dil.Series = append(dil.Series, ds)
		eff.Series = append(eff.Series, es)
	}
	note := fmt.Sprintf("each point is the mean of %d mixes; the paper finds sensibility has almost no impact", n)
	dil.Notes = []string{note}
	return &Document{
		ID:      "fig7",
		Title:   "Impact of sensibility (Section 4.3)",
		Figures: []*report.Figure{dil, eff},
	}, nil
}
