package engine

import (
	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// Observers watch an engine's decision points; a nil one costs nothing.
// Trace receives one record per decision point (Decide), Telemetry
// samples each point under its MinInterval gate, and Health sees every
// point (Observe).
type Observers struct {
	Trace     dectrace.Sink
	Telemetry *telemetry.Probe
	Health    *health.Monitor
}

// Holdings is the bandwidth each candidate holds, as the engine last
// applied it through Set: the simulator's application arena, the daemon's
// session arena. The candidate set cannot answer this itself: it records
// no bandwidth for a slot owed an answer, and none after a full grant.
type Holdings interface {
	Held(slot int32) float64
}

// Point builds the congestion point at now: one telemetry.PointBuilder
// walk over the candidates in the ordered view, each with the bandwidth h
// says it holds, normalized by cap, with the burst-buffer level (0 without
// one). Every engine builds its points here, so equivalent histories give
// bit-identical series (TestDaemonTelemetryMatchesSimulator).
//
//iosched:allocfree
func (k *Kernel) Point(h Holdings, now float64, cap core.Capacity, level float64) telemetry.Point {
	var b telemetry.PointBuilder
	slots, views := k.Cands.Ordered()
	for i, v := range views {
		b.Add(now, v, h.Held(slots[i]), cap.NodeBW)
	}
	return b.Finish(now, cap.TotalBW, level)
}

// Observe is the one capture site: an engine calls it after every Decide,
// with the capacity and burst-buffer level as they stand after the
// verdict. It builds the point at most once, records it when the probe is
// due (the probe samples) and feeds it to the health monitor at every
// decision point, so the firing sequence depends only on the workload and
// the policy (TestDaemonHealthMatchesSimulator). With neither attached it
// costs two comparisons.
//
//iosched:allocfree
func (k *Kernel) Observe(h Holdings, now float64, cap core.Capacity, level float64) {
	pr, m := k.obs.Telemetry, k.obs.Health
	if pr != nil && !pr.Due(now) {
		pr = nil // sampled out at this instant
	}
	if pr == nil && m == nil {
		return
	}
	pt := k.Point(h, now, cap, level)
	if pr != nil {
		pr.Record(pt)
	}
	if m != nil {
		m.Observe(pt)
	}
}
