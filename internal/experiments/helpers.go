package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// momentSchedulers is the heuristic set of Tables 1 and 2 in table order:
// the two extremes and the three MinMax thresholds, each followed by its
// Priority variant.
var momentSchedulers = []string{
	"MaxSysEff", "Priority-MaxSysEff",
	"MinMax-0.25", "Priority-MinMax-0.25",
	"MinMax-0.5", "Priority-MinMax-0.5",
	"MinMax-0.75", "Priority-MinMax-0.75",
	"MinDilation", "Priority-MinDilation",
}

// machineScheduler stands in for the production scheduler the heuristics
// are compared with; it runs with the machine's burst buffers.
const machineScheduler = "fair-share"

// momentsWorkload labels the workload axis of every moment-set campaign.
const momentsWorkload = "moments"

// momentSet is one machine's seeded congested-moment set (Section 4.4).
type momentSet struct {
	preset  string // platform preset, also the campaign platform label
	machine string // the production scheduler's row label
	setSeed int64
	n       int
}

func intrepidSet(cfg Config) momentSet {
	return momentSet{"intrepid", "Intrepid", 1000 + cfg.Seed, cfg.intrepidMoments()}
}

func miraSet(cfg Config) momentSet {
	return momentSet{"mira", "Mira", 2000 + cfg.Seed, cfg.miraMoments()}
}

// spec declares the set's first n moments under scheds as a campaign:
// the seed axis is the moment index, so each group's mean over seeds is
// its mean over the moments.
func (m momentSet) spec(n int, scheds []string, sim campaign.SimOptions) *campaign.Spec {
	return &campaign.Spec{
		Name:       m.preset + "-" + momentsWorkload,
		Platforms:  []campaign.PlatformSpec{{Preset: m.preset}},
		Schedulers: scheds,
		Workloads: []campaign.WorkloadSpec{{
			Name:    momentsWorkload,
			Moments: &campaign.MomentSpec{SetSeed: m.setSeed},
		}},
		Seeds: campaign.SeedRange{Count: n},
		Sim:   sim,
	}
}

// run executes the paper's headline comparison on the set's first n
// moments: scheds without burst buffers (heur), and the machine
// scheduler with them (base).
func (m momentSet) run(cfg Config, n int, scheds []string) (heur, base *campaign.Results, err error) {
	if heur, err = runSpec(cfg, m.spec(n, scheds, campaign.SimOptions{})); err != nil {
		return nil, nil, err
	}
	base, err = runSpec(cfg, m.spec(n, []string{machineScheduler}, campaign.SimOptions{UseBB: true}))
	return heur, base, err
}

// runSpec executes a campaign on the configured worker pool, uncached.
func runSpec(cfg Config, spec *campaign.Spec) (*campaign.Results, error) {
	res, _, err := (&campaign.Runner{Spec: spec, Workers: cfg.Workers}).Run()
	return res, err
}

// groupOf returns one group of a campaign the caller declared.
func groupOf(res *campaign.Results, platform, workload, sched string) campaign.GroupSummary {
	g, ok := res.Group(platform, workload, sched)
	if !ok {
		panic(fmt.Sprintf("experiments: campaign %s has no group %s/%s/%s", res.Name, platform, workload, sched))
	}
	return g
}

// cellsOf returns one scheduler's cell summaries in moment order.
func cellsOf(res *campaign.Results, sched string) []metrics.Summary {
	var out []metrics.Summary
	for _, c := range res.Cells {
		if c.Scheduler == sched {
			out = append(out, c.Summary)
		}
	}
	return out
}
