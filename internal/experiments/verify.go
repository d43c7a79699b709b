package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "verify",
		Title: "Paper-shape claim checks at the configured scale",
		Paper: "the paper's qualitative claims",
		Run:   runVerify,
	})
}

// claim is one checkable reproduction statement: a and b are the two
// quantities compared, pass the verdict.
type claim struct {
	name string
	a, b float64
	pass bool
}

// runVerify checks the paper's qualitative claims against live runs:
// every row is one of the paper's qualitative claims evaluated at the
// configured scale (use -quick for a fast sanity pass, default scale for
// the committed numbers).
func runVerify(cfg Config) (*Document, error) {
	var claims []claim
	add := func(name string, a, b float64, pass bool) {
		claims = append(claims, claim{name, a, b, pass})
	}

	// --- Intrepid and Mira congested moments (Tables 1 and 2). -------
	for _, set := range []momentSet{intrepidSet(cfg), miraSet(cfg)} {
		heur, base, err := set.run(cfg, set.n, []string{"MaxSysEff", "MinDilation", "MinMax-0.5"})
		if err != nil {
			return nil, err
		}
		maxEff := groupOf(heur, set.preset, momentsWorkload, "MaxSysEff")
		minDil := groupOf(heur, set.preset, momentsWorkload, "MinDilation")
		mid := groupOf(heur, set.preset, momentsWorkload, "MinMax-0.5")
		machine := groupOf(base, set.preset, momentsWorkload, machineScheduler)

		add(set.preset+": MaxSysEff efficiency >= MinDilation's",
			maxEff.SysEfficiency, minDil.SysEfficiency,
			maxEff.SysEfficiency >= minDil.SysEfficiency-0.1)
		add(set.preset+": MinDilation dilation <= MaxSysEff's",
			minDil.Dilation, maxEff.Dilation,
			minDil.Dilation <= maxEff.Dilation+0.01)
		add(set.preset+": MaxSysEff (no BB) beats machine scheduler (BB) on efficiency",
			maxEff.SysEfficiency, machine.SysEfficiency,
			maxEff.SysEfficiency > machine.SysEfficiency)
		add(set.preset+": MinDilation (no BB) beats machine scheduler (BB) on dilation",
			minDil.Dilation, machine.Dilation,
			minDil.Dilation < machine.Dilation)
		add(set.preset+": upper limit bounds every heuristic",
			machine.UpperLimit, maxEff.SysEfficiency,
			machine.UpperLimit >= maxEff.SysEfficiency && machine.UpperLimit >= machine.SysEfficiency)
		add(set.preset+": MinMax-0.5 interpolates the extremes on dilation",
			mid.Dilation, maxEff.Dilation,
			mid.Dilation >= minDil.Dilation-0.05 && mid.Dilation <= maxEff.Dilation+0.05)
	}

	// --- Vesta (Figures 14 and 15). -----------------------------------
	params := iorParams(cfg)
	sc, err := ior.ParseScenario("256/256/512")
	if err != nil {
		return nil, err
	}
	sched, err := ior.Run(sc, ior.Variant{Mode: cluster.Scheduled,
		Policy: core.MaxSysEff().WithPriority()}, params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	congested, err := ior.Run(sc, ior.Variant{Mode: cluster.OriginalIOR}, params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	add("vesta 256/256/512: scheduler beats congested IOR on efficiency",
		sched.Summary.SysEfficiency, congested.Summary.SysEfficiency,
		sched.Summary.SysEfficiency > congested.Summary.SysEfficiency)
	add("vesta 256/256/512: scheduler beats congested IOR on dilation",
		sched.Summary.Dilation, congested.Summary.Dilation,
		sched.Summary.Dilation < congested.Summary.Dilation)

	overhead, err := ior.Overhead(sc, false, params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	add("vesta 256/256/512: scheduler machinery overhead within (0, 10)%",
		overhead, 10, overhead > 0 && overhead < 10)

	// --- Cross-engine validation (Section 5). -------------------------
	simFinish, clusterFinish, err := crossValidate(cfg)
	if err != nil {
		return nil, err
	}
	rel := math.Abs(simFinish-clusterFinish) / simFinish
	add("simulator and cluster emulator agree within 2%",
		simFinish, clusterFinish, rel <= 0.02)

	// --- Render. -------------------------------------------------------
	tbl := &report.Table{
		Title:   fmt.Sprintf("Claim checks (%d moments Intrepid / %d Mira, %d-iteration Vesta runs)", cfg.intrepidMoments(), cfg.miraMoments(), params.Iterations),
		Columns: []string{"measured", "reference", "pass"},
	}
	failures := 0
	for _, c := range claims {
		passVal := 1.0
		if !c.pass {
			passVal = 0
			failures++
		}
		tbl.AddRow(c.name, c.a, c.b, passVal)
	}
	tbl.Notes = []string{fmt.Sprintf("%d/%d claims hold", len(claims)-failures, len(claims))}
	return &Document{ID: "verify", Title: "Reproduction claim checks",
		Tables: []*report.Table{tbl}}, nil
}

// crossValidate reruns the Section 5 validation: one scenario through both
// engines with negligible emulator latencies; returns the two makespans.
func crossValidate(cfg Config) (simFinish, clusterFinish float64, err error) {
	const (
		ranks = 128
		iters = 5
		work  = 2.0
		block = 0.1
	)
	vesta := platform.Vesta()
	cres, err := cluster.Run(cluster.Config{
		Platform: vesta,
		Mode:     cluster.Scheduled,
		Policy:   core.MaxSysEff(),
		Apps: []cluster.AppConfig{
			{ID: 0, Name: "a", Ranks: ranks, Iterations: iters, Work: work, BlockGiB: block},
			{ID: 1, Name: "b", Ranks: ranks, Iterations: iters, Work: work, BlockGiB: block},
		},
		MsgLatency: 1e-7, ReqLatency: 1e-7, ProcTime: 1e-8, ComputeJitter: 1e-9,
		Seed: cfg.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	vol := float64(ranks) * block
	sres, err := sim.Run(sim.Config{
		Platform:  vesta.WithoutBB(),
		Scheduler: core.MaxSysEff(),
		Apps: []*platform.App{
			platform.NewPeriodic(0, ranks, work, vol, iters),
			platform.NewPeriodic(1, ranks, work, vol, iters),
		},
	})
	if err != nil {
		return 0, 0, err
	}
	return sres.Summary.Makespan, cres.Makespan, nil
}
