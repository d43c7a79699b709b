package experiments

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// replicateSummaries is the pre-campaign replicate driver, kept as the
// reference the campaign-based Figure 6 and 7 drivers are checked
// against: it runs one scheduler over seeded replicate mixes and returns
// the per-replicate summaries.
func replicateSummaries(cfgGen func(rep int) workload.Config, sched core.Scheduler, n, workers int) ([]metrics.Summary, error) {
	return parallel.Map(n, workers, func(rep int) (metrics.Summary, error) {
		wcfg := cfgGen(rep)
		apps, err := workload.Generate(wcfg)
		if err != nil {
			return metrics.Summary{}, err
		}
		res, err := sim.Run(sim.Config{
			Platform:  wcfg.Platform.WithoutBB(),
			Scheduler: sched,
			Apps:      apps,
		})
		if err != nil {
			return metrics.Summary{}, fmt.Errorf("replicate %d under %s: %w", rep, sched.Name(), err)
		}
		return res.Summary, nil
	})
}

// TestFig6CampaignMatchesDirectSweep pins the campaign-based Figure 6
// driver to the original hand-wired sweep: identical replicate seeding,
// identical reduction order, bit-identical table cells. This is the
// guarantee that re-expressing a figure as a campaign did not change its
// numbers.
func TestFig6CampaignMatchesDirectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison skipped in -short mode")
	}
	const n = 4
	cfg := Config{Replicates: n, Seed: 3, Workers: 2}
	for _, kind := range []workload.Fig6Kind{workload.Fig6A, workload.Fig6B, workload.Fig6C} {
		kind := kind
		doc, err := fig6Runner(kind)(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl := doc.Tables[0]
		if len(tbl.Rows) != len(core.AllHeuristics()) {
			t.Fatalf("%v: %d rows", kind, len(tbl.Rows))
		}
		for ri, sched := range core.AllHeuristics() {
			// The pre-campaign driver, verbatim: run the scheduler over
			// the seeded replicate mixes and average.
			sums, err := replicateSummaries(func(rep int) workload.Config {
				return workload.Fig6Config(kind, cfg.Seed+int64(rep)*31+7)
			}, sched, n, cfg.Workers)
			if err != nil {
				t.Fatal(err)
			}
			mean := metrics.MeanSummary(sums)
			var effs, dils metrics.Sample
			for _, s := range sums {
				effs = append(effs, s.SysEfficiency)
				dils = append(dils, s.Dilation)
			}
			row := tbl.Rows[ri]
			if row.Label != sched.Name() {
				t.Errorf("%v row %d: label %q, want %q", kind, ri, row.Label, sched.Name())
				continue
			}
			want := []float64{mean.SysEfficiency, effs.CI95(), mean.Dilation, dils.CI95()}
			for ci, w := range want {
				if row.Cells[ci] != w {
					t.Errorf("%v %s cell %d: campaign %v, direct sweep %v",
						kind, sched.Name(), ci, row.Cells[ci], w)
				}
			}
		}
	}
}

// TestFig7CampaignMatchesDirectSweep pins the campaign-based Figure 7
// driver to the pre-campaign loop: every series point is the mean of
// the Figure 6b replicates with the work sensibility set, bit for bit.
func TestFig7CampaignMatchesDirectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison skipped in -short mode")
	}
	cfg := Config{Replicates: 3, Seed: 3, Workers: 2}
	doc, err := runFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dil, eff := doc.Figures[0], doc.Figures[1]
	for si, sched := range []core.Scheduler{core.MinDilation(), core.MaxSysEff(), core.MinMax(0.5)} {
		if dil.Series[si].Name != sched.Name() {
			t.Fatalf("series %d is %q, want %q", si, dil.Series[si].Name, sched.Name())
		}
		for pi, x := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
			sums, err := replicateSummaries(func(rep int) workload.Config {
				wcfg := workload.Fig6Config(workload.Fig6B, cfg.Seed+int64(rep)*31+7)
				wcfg.SensW = x
				wcfg.SensIO = 0
				return wcfg
			}, sched, cfg.Replicates, cfg.Workers)
			if err != nil {
				t.Fatal(err)
			}
			mean := metrics.MeanSummary(sums)
			if got := dil.Series[si].Y[pi]; got != mean.Dilation {
				t.Errorf("%s sens %g: dilation %v, direct sweep %v", sched.Name(), x, got, mean.Dilation)
			}
			if got := eff.Series[si].Y[pi]; got != mean.SysEfficiency {
				t.Errorf("%s sens %g: efficiency %v, direct sweep %v", sched.Name(), x, got, mean.SysEfficiency)
			}
		}
	}
}

// TestFig6DecisionSkipping pins the engine's decision-skipping on the
// paper's own workloads: every Figure 6 cell resolves some decision
// points without invoking the scheduler (single-candidate and uncongested
// phases), while TestFig6CampaignMatchesDirectSweep and the sim package's
// cross-engine goldens guarantee the per-app metrics are unchanged.
func TestFig6DecisionSkipping(t *testing.T) {
	const n = 2
	cfg := Config{Replicates: n, Seed: 3, Workers: 2}
	for _, kind := range []workload.Fig6Kind{workload.Fig6A, workload.Fig6B, workload.Fig6C} {
		spec := fig6Spec(kind, cfg.Seed, n)
		res, _, err := (&campaign.Runner{Spec: spec, Workers: cfg.Workers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range res.Cells {
			if cell.Skipped == 0 {
				t.Errorf("%v %s seed %d: no skipped decisions (decisions=%d)",
					kind, cell.Scheduler, cell.Seed, cell.Decisions)
			}
			if cell.Decisions == 0 {
				t.Errorf("%v %s seed %d: zero decisions", kind, cell.Scheduler, cell.Seed)
			}
		}
	}
}
