package server

import (
	"io"

	"repro/internal/telemetry"
)

// WritePrometheus renders the daemon's state in the Prometheus text
// exposition format: the live congestion gauges (sampled fresh from the
// candidate set, so they are current even between telemetry points), the
// operational counters, the iosched_health_* family when a health
// monitor is attached, and — when a telemetry probe is attached — the
// service-latency histograms. It backs the metrics listener's
// /metrics.prom endpoint (cmd/ioschedd), next to the JSON /metrics.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Metrics()
	s.mu.Lock()
	pt := s.k.Point((*applier)(s), s.now(), s.capacity(), 0)
	s.mu.Unlock()

	pw := telemetry.NewPromWriter(w)
	pw.Gauge("ioschedd_utilization_ratio", "Aggregate granted bandwidth over the file-system capacity B.", pt.Utilization)
	pw.Gauge("ioschedd_backlog_ratio", "Aggregate candidate demand over B; above 1 the system is congested.", pt.Backlog)
	pw.Gauge("ioschedd_candidates", "Applications currently wanting I/O.", float64(m.Candidates))
	pw.Gauge("ioschedd_sessions", "Registered applications.", float64(m.Sessions))
	pw.Gauge("ioschedd_jain_fairness", "Instantaneous Jain fairness index over candidate grants.", pt.Jain)
	pw.Gauge("ioschedd_max_stretch", "Largest candidate running stretch (1 = on the congestion-free trajectory).", pt.MaxStretch)
	pw.Gauge("ioschedd_mean_stretch", "Mean candidate running stretch.", pt.MeanStretch)
	pw.Gauge("ioschedd_uptime_seconds", "Seconds since the daemon started, on its own clock.", m.UptimeSeconds)
	pw.Counter("ioschedd_rounds_total", "Allocation rounds with a non-empty candidate set.", float64(m.Rounds))
	pw.Counter("ioschedd_decisions_total", "Policy invocations.", float64(m.Decisions))
	pw.Counter("ioschedd_skipped_total", "Rounds resolved without invoking the policy.", float64(m.Skipped))
	pw.Counter("ioschedd_grant_pushes_total", "Grant verdicts enqueued to clients.", float64(m.GrantPushes))
	pw.Counter("ioschedd_grant_superseded_total", "Enqueued grants that never reached the wire: replaced by a later verdict or already held by the client.", float64(m.GrantsSuperseded))
	pw.Counter("ioschedd_forecasts_total", "Advisor forecasts recorded.", float64(m.ForecastsRun))
	pw.Counter("ioschedd_policy_switches_total", "Runtime policy changes applied.", float64(m.PolicySwitches))
	if s.cfg.Health != nil {
		snap := s.cfg.Health.Snapshot()
		state := 0.0
		switch snap.State {
		case "degraded":
			state = 1
		case "critical":
			state = 2
		}
		pw.Gauge("iosched_health_state", "Aggregate health verdict: 0 ok, 1 degraded, 2 critical.", state)
		pw.Counter("iosched_health_anomalies_total", "Detector firing transitions since start.", float64(snap.Anomalies))
		pw.Gauge("iosched_health_congestion_error", "Congestion error signal e(t) = max(0, backlog - 1).", snap.CongestionError)
		// The exposition writer has no label support, so each detector
		// gets its own metric pair, suffixed with its snake_case name.
		for _, v := range snap.Detectors {
			firing := 0.0
			if v.Firing {
				firing = 1
			}
			pw.Gauge("iosched_health_firing_"+v.Detector, "Whether the "+v.Detector+" detector is currently firing.", firing)
			pw.Counter("iosched_health_firings_total_"+v.Detector, "Lifetime firing transitions of the "+v.Detector+" detector.", float64(v.Firings))
		}
	}
	if s.tel != nil {
		help := map[string]string{
			"ioschedd_round_duration_seconds":   "Wall time of one allocation round (decide, re-arm wake, flush).",
			"ioschedd_grant_push_delay_seconds": "Grant enqueue to socket write completed.",
			"ioschedd_decision_apply_seconds":   "Client message arrival to the round's grants flushed.",
		}
		for _, name := range s.tel.HistogramNames() {
			pw.Histogram(name, help[name], s.tel.Histogram(name).Snapshot())
		}
	}
	return pw.Err()
}
