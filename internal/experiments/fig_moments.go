package experiments

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Priority heuristics vs the Intrepid scheduler per congested moment",
		Paper: "Figure 8",
		Run: momentsFigure("fig8", intrepidSet, 28,
			[]string{"Priority-MaxSysEff", "Priority-MinDilation"}),
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Priority MinMax-γ family on Intrepid congested moments",
		Paper: "Figure 9",
		Run: momentsFigure("fig9", intrepidSet, 28,
			[]string{"Priority-MaxSysEff", "Priority-MinMax-0.25", "Priority-MinMax-0.5",
				"Priority-MinMax-0.75", "Priority-MinDilation"}),
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Non-Priority heuristics vs the Intrepid scheduler per congested moment",
		Paper: "Figure 10",
		Run: momentsFigure("fig10", intrepidSet, 28,
			[]string{"MaxSysEff", "MinDilation"}),
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Priority heuristics vs the Mira scheduler per congested moment",
		Paper: "Figure 11",
		Run: momentsFigure("fig11", miraSet, 11,
			[]string{"Priority-MaxSysEff", "Priority-MinDilation"}),
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Priority MinMax-γ family on Mira congested moments",
		Paper: "Figure 12",
		Run: momentsFigure("fig12", miraSet, 11,
			[]string{"Priority-MaxSysEff", "Priority-MinMax-0.25", "Priority-MinMax-0.5",
				"Priority-MinMax-0.75", "Priority-MinDilation"}),
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Non-Priority heuristics vs the Mira scheduler per congested moment",
		Paper: "Figure 13",
		Run: momentsFigure("fig13", miraSet, 11,
			[]string{"MaxSysEff", "MinDilation"}),
	})
	register(Experiment{
		ID:    "table1",
		Title: "Averages over the Intrepid congested moments",
		Paper: "Table 1",
		Run:   momentsTable("table1", intrepidSet),
	})
	register(Experiment{
		ID:    "table2",
		Title: "Averages over the Mira congested moments",
		Paper: "Table 2",
		Run:   momentsTable("table2", miraSet),
	})
}

// momentsFigure builds a per-moment comparison figure (two panels:
// Dilation, SysEfficiency) for the named schedulers plus the production
// baseline and the upper limit, over the set's first firstN moments.
func momentsFigure(id string, set func(Config) momentSet, firstN int, schedNames []string) Runner {
	return func(cfg Config) (*Document, error) {
		m := set(cfg)
		heur, base, err := m.run(cfg, min(m.n, firstN), schedNames)
		if err != nil {
			return nil, err
		}

		dil := &report.Figure{
			Title:  "Dilation per congested moment (lower is better)",
			XLabel: "moment",
			YLabel: "Dilation",
		}
		eff := &report.Figure{
			Title:  "SysEfficiency per congested moment (higher is better)",
			XLabel: "moment",
			YLabel: "SysEfficiency",
		}
		addSeries := func(name string, sums []metrics.Summary) {
			ds, es := report.Series{Name: name}, report.Series{Name: name}
			for i, s := range sums {
				x := float64(i + 1)
				ds.X, ds.Y = append(ds.X, x), append(ds.Y, s.Dilation)
				es.X, es.Y = append(es.X, x), append(es.Y, s.SysEfficiency)
			}
			dil.Series = append(dil.Series, ds)
			eff.Series = append(eff.Series, es)
		}
		for _, name := range schedNames {
			addSeries(name, cellsOf(heur, name))
		}
		baseline := cellsOf(base, machineScheduler)
		addSeries(m.preset, baseline)
		upper := make([]metrics.Summary, len(baseline))
		for i, s := range baseline {
			upper[i] = metrics.Summary{Dilation: 1, SysEfficiency: s.UpperLimit}
		}
		addSeries("Upper-limit", upper)
		dil.Notes = []string{
			"heuristics run without burst buffers; the baseline uses them",
			fmt.Sprintf("%d congested moments", len(baseline)),
		}
		return &Document{
			ID:      id,
			Title:   fmt.Sprintf("Per-moment comparison on %s", m.preset),
			Figures: []*report.Figure{dil, eff},
		}, nil
	}
}

// momentsTable builds a Table 1/Table 2 style report: mean Dilation and
// SysEfficiency per scheduler over the full congested-moment set.
func momentsTable(id string, set func(Config) momentSet) Runner {
	return func(cfg Config) (*Document, error) {
		m := set(cfg)
		heur, base, err := m.run(cfg, m.n, momentSchedulers)
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("Averages over %d congested moments on %s", m.n, m.machine),
			Columns: []string{"Dilation", "SysEfficiency"},
			Notes: []string{
				"Dilation is minimized, SysEfficiency maximized",
				"heuristic rows run without burst buffers; the machine row uses them",
			},
		}
		for _, name := range momentSchedulers {
			g := groupOf(heur, m.preset, momentsWorkload, name)
			tbl.AddRow(name, g.Dilation, g.SysEfficiency)
		}
		g := groupOf(base, m.preset, momentsWorkload, machineScheduler)
		tbl.AddRow(m.machine, g.Dilation, g.SysEfficiency)
		tbl.AddRow("Upper-limit", math.NaN(), g.UpperLimit)
		return &Document{
			ID:     id,
			Title:  fmt.Sprintf("%s congested-moment averages", m.machine),
			Tables: []*report.Table{tbl},
		}, nil
	}
}
