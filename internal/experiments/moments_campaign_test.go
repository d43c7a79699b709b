package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// momentOutcome holds every scheduler's result on one congested moment.
type momentOutcome struct {
	Name string
	// PerSched maps scheduler name to the run summary of our heuristic
	// without burst buffers.
	PerSched map[string]metrics.Summary
	// Baseline is the production scheduler: max-min fair sharing with
	// the machine's burst buffers.
	Baseline metrics.Summary
	// Upper is the mix's upper-limit SysEfficiency.
	Upper float64
}

// runMoments executes every scheduler on every congested moment: the
// heuristics run without burst buffers, the baseline (the machine's own
// scheduler) with them — the paper's headline comparison.
func runMoments(moments []workload.Moment, scheds []core.Scheduler, workers int) ([]momentOutcome, error) {
	return parallel.Map(len(moments), workers, func(i int) (momentOutcome, error) {
		m := moments[i]
		out := momentOutcome{Name: m.Name, PerSched: make(map[string]metrics.Summary, len(scheds))}
		for _, s := range scheds {
			res, err := sim.Run(sim.Config{
				Platform:  m.Platform.WithoutBB(),
				Scheduler: s,
				Apps:      m.Apps,
			})
			if err != nil {
				return out, fmt.Errorf("%s under %s: %w", m.Name, s.Name(), err)
			}
			out.PerSched[s.Name()] = res.Summary
		}
		base, err := sim.Run(sim.Config{
			Platform:  m.Platform,
			Scheduler: core.FairShare{},
			Apps:      m.Apps,
			UseBB:     m.Platform.BurstBuffer != nil,
		})
		if err != nil {
			return out, fmt.Errorf("%s baseline: %w", m.Name, err)
		}
		out.Baseline = base.Summary
		out.Upper = base.Summary.UpperLimit
		return out, nil
	})
}

// referenceMoments is the pre-campaign moment sweep of one set: every
// Table 1/2 heuristic and the baseline on each moment, plus the means
// the old drivers took over them, in moment order.
type referenceMoments struct {
	outcomes []momentOutcome
	mean     map[string]metrics.Summary
	base     metrics.Summary
	upper    float64
}

func referenceSweep(t *testing.T, moments []workload.Moment, workers int) referenceMoments {
	t.Helper()
	var scheds []core.Scheduler
	for _, name := range momentSchedulers {
		s, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	outcomes, err := runMoments(moments, scheds, workers)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceMoments{outcomes: outcomes, mean: map[string]metrics.Summary{}}
	for _, name := range momentSchedulers {
		var runs []metrics.Summary
		for _, o := range outcomes {
			runs = append(runs, o.PerSched[name])
		}
		ref.mean[name] = metrics.MeanSummary(runs)
	}
	var base []metrics.Summary
	for _, o := range outcomes {
		base = append(base, o.Baseline)
		ref.upper += o.Upper
	}
	ref.base = metrics.MeanSummary(base)
	ref.upper /= float64(len(outcomes))
	return ref
}

// sameFloat is bit equality, with NaN equal to itself.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func checkRows(t *testing.T, what string, got, want []report.Row) {
	t.Helper()
	if len(got) < len(want) {
		t.Fatalf("%s: %d rows, want at least %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Label != w.Label || len(g.Cells) != len(w.Cells) {
			t.Errorf("%s row %d: %q %v, want %q %v", what, i, g.Label, g.Cells, w.Label, w.Cells)
			continue
		}
		for j := range w.Cells {
			if !sameFloat(g.Cells[j], w.Cells[j]) {
				t.Errorf("%s %s cell %d: campaign %v, direct loop %v", what, w.Label, j, g.Cells[j], w.Cells[j])
			}
		}
	}
}

// TestMomentsCampaignMatchesDirectLoop pins the campaign-based moment
// drivers to the pre-campaign loop (runMoments and its means): every
// cell of Tables 1 and 2, every moment row of verify and every Figure 8
// and 11 series point is bit-equal, at two seeds.
func TestMomentsCampaignMatchesDirectLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison skipped in -short mode")
	}
	for _, seed := range []int64{0, 3} {
		cfg := tinyConfig()
		cfg.Seed = seed
		verify, err := runVerify(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var verifyRows []report.Row
		for _, set := range []struct {
			label, machine, table, fig string
			moments                    []workload.Moment
		}{
			{"intrepid", "Intrepid", "table1", "fig8", workload.IntrepidMoments(cfg.intrepidMoments(), 1000+seed)},
			{"mira", "Mira", "table2", "fig11", workload.MiraMoments(cfg.miraMoments(), 2000+seed)},
		} {
			ref := referenceSweep(t, set.moments, cfg.Workers)
			what := fmt.Sprintf("seed %d %s", seed, set.table)

			// Tables 1 and 2.
			var want []report.Row
			for _, name := range momentSchedulers {
				want = append(want, report.Row{Label: name, Cells: []float64{ref.mean[name].Dilation, ref.mean[name].SysEfficiency}})
			}
			want = append(want,
				report.Row{Label: set.machine, Cells: []float64{ref.base.Dilation, ref.base.SysEfficiency}},
				report.Row{Label: "Upper-limit", Cells: []float64{math.NaN(), ref.upper}})
			doc, err := registry[set.table].Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, what, doc.Tables[0].Rows, want)
			if len(doc.Tables[0].Rows) != len(want) {
				t.Errorf("%s: %d rows, want %d", what, len(doc.Tables[0].Rows), len(want))
			}

			// Figures 8 and 11: the Priority extremes, the baseline and
			// the upper limit per moment.
			doc, err = registry[set.fig].Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pick := []func(momentOutcome) (float64, float64){
				func(o momentOutcome) (float64, float64) {
					return o.PerSched["Priority-MaxSysEff"].Dilation, o.PerSched["Priority-MaxSysEff"].SysEfficiency
				},
				func(o momentOutcome) (float64, float64) {
					return o.PerSched["Priority-MinDilation"].Dilation, o.PerSched["Priority-MinDilation"].SysEfficiency
				},
				func(o momentOutcome) (float64, float64) { return o.Baseline.Dilation, o.Baseline.SysEfficiency },
				func(o momentOutcome) (float64, float64) { return 1, o.Upper },
			}
			names := []string{"Priority-MaxSysEff", "Priority-MinDilation", set.label, "Upper-limit"}
			dil, eff := doc.Figures[0], doc.Figures[1]
			if len(dil.Series) != len(names) || len(eff.Series) != len(names) {
				t.Fatalf("seed %d %s: %d/%d series, want %d", seed, set.fig, len(dil.Series), len(eff.Series), len(names))
			}
			for si, name := range names {
				ds, es := dil.Series[si], eff.Series[si]
				if ds.Name != name || es.Name != name || len(ds.Y) != len(ref.outcomes) || len(es.Y) != len(ref.outcomes) {
					t.Errorf("seed %d %s series %d: %q/%q with %d points, want %q with %d",
						seed, set.fig, si, ds.Name, es.Name, len(ds.Y), name, len(ref.outcomes))
					continue
				}
				for i, o := range ref.outcomes {
					d, e := pick[si](o)
					if ds.X[i] != float64(i+1) || ds.Y[i] != d || es.X[i] != float64(i+1) || es.Y[i] != e {
						t.Errorf("seed %d %s %s moment %d: (%v, %v), direct loop (%v, %v)",
							seed, set.fig, name, i+1, ds.Y[i], es.Y[i], d, e)
					}
				}
			}

			// verify's moment rows, as the pre-campaign claims computed them.
			maxEff, minDil, mid, base := ref.mean["MaxSysEff"], ref.mean["MinDilation"], ref.mean["MinMax-0.5"], ref.base
			pass := func(ok bool) float64 {
				if ok {
					return 1
				}
				return 0
			}
			row := func(name string, a, b float64, ok bool) report.Row {
				return report.Row{Label: set.label + ": " + name, Cells: []float64{a, b, pass(ok)}}
			}
			verifyRows = append(verifyRows,
				row("MaxSysEff efficiency >= MinDilation's", maxEff.SysEfficiency, minDil.SysEfficiency,
					maxEff.SysEfficiency >= minDil.SysEfficiency-0.1),
				row("MinDilation dilation <= MaxSysEff's", minDil.Dilation, maxEff.Dilation,
					minDil.Dilation <= maxEff.Dilation+0.01),
				row("MaxSysEff (no BB) beats machine scheduler (BB) on efficiency", maxEff.SysEfficiency, base.SysEfficiency,
					maxEff.SysEfficiency > base.SysEfficiency),
				row("MinDilation (no BB) beats machine scheduler (BB) on dilation", minDil.Dilation, base.Dilation,
					minDil.Dilation < base.Dilation),
				row("upper limit bounds every heuristic", ref.upper, maxEff.SysEfficiency,
					ref.upper >= maxEff.SysEfficiency && ref.upper >= base.SysEfficiency),
				row("MinMax-0.5 interpolates the extremes on dilation", mid.Dilation, maxEff.Dilation,
					mid.Dilation >= minDil.Dilation-0.05 && mid.Dilation <= maxEff.Dilation+0.05))
		}
		checkRows(t, fmt.Sprintf("seed %d verify", seed), verify.Tables[0].Rows, verifyRows)
	}
}
