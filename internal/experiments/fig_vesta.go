package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Execution-time overhead of the scheduler-augmented IOR benchmark",
		Paper: "Figure 14",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "System efficiency and dilation per Vesta scenario",
		Paper: "Figure 15",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Per-application dilation in the 512/256/256/32 scenario",
		Paper: "Figure 16",
		Run:   runFig16,
	})
}

func iorParams(cfg Config) ior.Params {
	if cfg.Quick {
		return ior.QuickParams()
	}
	return ior.DefaultParams()
}

// runFig14 measures, for every scenario, the pure overhead of the
// scheduler machinery (reduce + request round trips, with the scheduler
// granting every request), with and without burst buffers.
func runFig14(cfg Config) (*Document, error) {
	scenarios := ior.PaperScenarios()
	params := iorParams(cfg)
	type row struct{ plain, buffered float64 }
	rows, err := parallel.Map(len(scenarios), cfg.Workers, func(i int) (row, error) {
		sc := scenarios[i]
		plain, err := ior.Overhead(sc, false, params, cfg.Seed+int64(i))
		if err != nil {
			return row{}, fmt.Errorf("%s: %w", sc.Name, err)
		}
		buffered, err := ior.Overhead(sc, true, params, cfg.Seed+int64(i))
		if err != nil {
			return row{}, fmt.Errorf("%s (BB): %w", sc.Name, err)
		}
		return row{plain, buffered}, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Overhead of the modified IOR benchmark (%)",
		Columns: []string{"no BurstBuffers", "BurstBuffers"},
		Notes: []string{
			"overhead = (modified − original makespan) / original, scheduler always grants",
			"paper reports 1% to 5.3%, under 3% for larger application counts",
		},
	}
	for i, sc := range scenarios {
		tbl.AddRow(sc.Name, rows[i].plain, rows[i].buffered)
	}
	return &Document{ID: "fig14", Title: "Scheduler overhead on Vesta", Tables: []*report.Table{tbl}}, nil
}

// runFig15 reproduces the main Vesta comparison: SysEfficiency and
// Dilation for every scenario under the six variants (MaxSysEff,
// MinDilation, unmodified IOR; each with and without burst buffers).
func runFig15(cfg Config) (*Document, error) {
	scenarios := ior.PaperScenarios()
	variants := ior.PaperVariants()
	params := iorParams(cfg)

	type cell struct{ eff, dil float64 }
	grid, err := parallel.Map(len(scenarios)*len(variants), cfg.Workers, func(k int) (cell, error) {
		sc := scenarios[k/len(variants)]
		v := variants[k%len(variants)]
		res, err := ior.Run(sc, v, params, cfg.Seed+int64(k/len(variants)))
		if err != nil {
			return cell{}, fmt.Errorf("%s under %s: %w", sc.Name, v.Label, err)
		}
		return cell{res.Summary.SysEfficiency, res.Summary.Dilation}, nil
	})
	if err != nil {
		return nil, err
	}

	eff := &report.Figure{
		Title:  "SysEfficiency per scenario",
		XLabel: "scenario#",
		YLabel: "SysEfficiency",
		Notes:  []string{scenarioLegend(scenarios), "SysEfficiency normalized by engaged nodes Σβ, as the paper's Figure 15 values are"},
	}
	dil := &report.Figure{
		Title:  "Dilation per scenario",
		XLabel: "scenario#",
		YLabel: "Dilation",
		Notes:  []string{scenarioLegend(scenarios)},
	}
	for j, v := range variants {
		es := report.Series{Name: v.Label}
		ds := report.Series{Name: v.Label}
		for i := range scenarios {
			c := grid[i*len(variants)+j]
			es.X, es.Y = append(es.X, float64(i+1)), append(es.Y, c.eff)
			ds.X, ds.Y = append(ds.X, float64(i+1)), append(ds.Y, c.dil)
		}
		eff.Series = append(eff.Series, es)
		dil.Series = append(dil.Series, ds)
	}
	return &Document{
		ID:      "fig15",
		Title:   "Vesta scenarios under all benchmark variants",
		Figures: []*report.Figure{eff, dil},
	}, nil
}

func scenarioLegend(scs []ior.Scenario) string {
	s := "scenarios:"
	for i, sc := range scs {
		s += fmt.Sprintf(" %d=%s", i+1, sc.Name)
	}
	return s
}

// runFig16 reproduces the per-application dilation study of the
// 512/256/256/32 scenario under MaxSysEff and MinDilation, against the
// congested (unmodified IOR) values.
func runFig16(cfg Config) (*Document, error) {
	sc, err := ior.ParseScenario("512/256/256/32")
	if err != nil {
		return nil, err
	}
	params := iorParams(cfg)
	variants := []ior.Variant{
		{Label: "MaxSysEff", Mode: cluster.Scheduled, Policy: core.MaxSysEff().WithPriority()},
		{Label: "MinDilation", Mode: cluster.Scheduled, Policy: core.MinDilation().WithPriority()},
		{Label: "IOR (congested)", Mode: cluster.OriginalIOR},
	}
	tbl := &report.Table{
		Title:   "Per-application dilation, scenario 512/256/256/32",
		Columns: []string{"app0 (512n)", "app1 (256n)", "app2 (256n)", "app3 (32n)"},
		Notes: []string{
			"paper: MaxSysEff trades small-app dilation (+36%) for large-app gains (-48%);",
			"MinDilation decreases all dilations roughly uniformly (-8.4% mean)",
		},
	}
	for _, v := range variants {
		res, err := ior.Run(sc, v, params, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Label, err)
		}
		tbl.AddRow(v.Label, metrics.PerAppDilations(res.Apps)...)
	}
	return &Document{
		ID:     "fig16",
		Title:  "Per-application dilation (Vesta)",
		Tables: []*report.Table{tbl},
	}, nil
}
