package workload

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// This file models the paper's canonical example of a periodic
// application: "an application that does not perform any I/O calls, but
// implements a periodic checkpoint for reliability constraints [6]" —
// [6] being Daly's higher-order estimate of the optimum checkpoint
// interval for restart dumps (FGCS 2004).

// DalyPeriod returns Daly's higher-order estimate of the optimal compute
// time between checkpoints, given the checkpoint write time δ and the
// platform MTBF M (both in seconds):
//
//	T_opt = sqrt(2δM)·[1 + (1/3)·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	T_opt = M                                                          otherwise
//
// The returned value is the work w of the induced periodic application;
// the checkpoint volume gives its per-instance I/O.
func DalyPeriod(delta, mtbf float64) (float64, error) {
	if delta <= 0 {
		return 0, fmt.Errorf("workload: checkpoint time %g, want > 0", delta)
	}
	if mtbf <= 0 {
		return 0, fmt.Errorf("workload: MTBF %g, want > 0", mtbf)
	}
	if delta >= 2*mtbf {
		return mtbf, nil
	}
	x := delta / (2 * mtbf)
	t := float64(math.Sqrt(2*delta*mtbf)*(1+math.Sqrt(x)/3+x/9)) - delta
	if t <= 0 {
		return 0, fmt.Errorf("workload: degenerate Daly period %g (δ=%g, M=%g)", t, delta, mtbf)
	}
	return t, nil
}

// CheckpointApp builds the periodic application induced by optimal
// checkpointing on the given platform: an application on nodes nodes with
// memory footprint memPerNode GiB per node checkpoints its full footprint
// every Daly period, for a run of the given total wall time.
func CheckpointApp(p *platform.Platform, id, nodes int, memPerNode, mtbf, wallTime float64) (*platform.App, error) {
	if nodes <= 0 || memPerNode <= 0 || wallTime <= 0 {
		return nil, fmt.Errorf("workload: bad checkpoint app parameters (nodes=%d mem=%g wall=%g)",
			nodes, memPerNode, wallTime)
	}
	vol := memPerNode * float64(nodes)
	delta := vol / p.PeakAppBW(nodes) // dedicated-mode write time
	w, err := DalyPeriod(delta, mtbf)
	if err != nil {
		return nil, err
	}
	n := int(wallTime / (w + delta))
	if n < 1 {
		n = 1
	}
	app := platform.NewPeriodic(id, nodes, w, vol, n)
	app.Name = fmt.Sprintf("ckpt-%d", id)
	return app, nil
}
