package server

import (
	"errors"

	"repro/internal/core"
)

// SystemSnapshot is a consistent export of the daemon's live scheduling
// state: the clock, the capacities, and every registered application's
// scheduler-visible view plus its announced phase profile. It is the
// observe half of the observe-predict-actuate loop — the digital twin
// (internal/twin) converts it into a simulator warm-start and
// fast-forwards it under candidate policies.
type SystemSnapshot struct {
	// Time is the capture instant on the server's clock (seconds since
	// start, the time base of every per-session field below).
	Time float64 `json:"time"`
	// Policy is the active scheduling policy's report name.
	Policy  string  `json:"policy"`
	TotalBW float64 `json:"total_bw_gibs"`
	NodeBW  float64 `json:"node_bw_gibs"`

	Apps []SessionSnapshot `json:"apps"`
}

// SessionSnapshot is one application's captured state, ordered by ID in
// SystemSnapshot.Apps.
type SessionSnapshot struct {
	ID    int `json:"id"`
	Nodes int `json:"nodes"`
	// Release is when the application registered, on the server's clock.
	Release float64 `json:"release"`
	// Phase is the scheduler-visible phase name (core.Phase.String()):
	// computing, pending or transferring.
	Phase string `json:"phase"`
	// Instance is the number of I/O phases completed so far; with a
	// profile, Profile[Instance] is the current phase.
	Instance int `json:"instance"`
	// RemVolume is the server's view of the remaining transfer volume.
	// It drains only through progress reports — between messages it
	// overstates the true remainder by BW times the silence.
	RemVolume float64 `json:"rem_volume_gib,omitempty"`
	// BW is the session's current bandwidth verdict.
	BW            float64 `json:"bw_gibs,omitempty"`
	Started       bool    `json:"started,omitempty"`
	LastIOEnd     float64 `json:"last_io_end"`
	PendingSince  float64 `json:"pending_since,omitempty"`
	CreditedWork  float64 `json:"credited_work_s,omitempty"`
	CreditedIdeal float64 `json:"credited_ideal_s,omitempty"`
	// Profile is the phase plan from the hello; empty when the client
	// did not announce one (such sessions forecast as opaque: only their
	// current transfer, if any, is predictable).
	Profile []PhaseSpec `json:"profile,omitempty"`
}

// Snapshot exports the daemon's current scheduling state under the
// allocation-round lock: every view is from the same instant, so the
// snapshot is exactly what the policy would see if a decision round ran
// now. Registry shards are read while holding the round lock (the
// permitted nesting order); no round can mutate a view mid-capture.
func (s *Server) Snapshot() *SystemSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &SystemSnapshot{
		Time:    s.now(),
		Policy:  s.k.Policy().Name(),
		TotalBW: s.cfg.TotalBW,
		NodeBW:  s.cfg.NodeBW,
	}
	s.reg.forEach(func(sess *session) {
		snap.Apps = append(snap.Apps, SessionSnapshot{
			ID:            sess.view.ID,
			Nodes:         sess.view.Nodes,
			Release:       sess.view.Release,
			Phase:         sess.view.Phase.String(),
			Instance:      sess.instance,
			RemVolume:     sess.view.RemVolume,
			BW:            sess.bw,
			Started:       sess.view.Started,
			LastIOEnd:     sess.view.LastIOEnd,
			PendingSince:  sess.view.PendingSince,
			CreditedWork:  sess.view.CreditedWork,
			CreditedIdeal: sess.view.CreditedIdeal,
			Profile:       append([]PhaseSpec(nil), sess.profile...),
		})
	})
	// Ascending IDs: the deterministic order every consumer (the twin's
	// conversion, JSON diffing) relies on.
	for i := 1; i < len(snap.Apps); i++ {
		for j := i; j > 0 && snap.Apps[j].ID < snap.Apps[j-1].ID; j-- {
			snap.Apps[j], snap.Apps[j-1] = snap.Apps[j-1], snap.Apps[j]
		}
	}
	return snap
}

// SetPolicy switches the daemon's scheduling policy at runtime — the
// actuate half of the advisor loop. The switch invalidates the decision
// memo and immediately runs a round under the new policy, so changed
// verdicts are pushed without waiting for the next client message.
func (s *Server) SetPolicy(p core.Scheduler) error {
	if p == nil {
		return errors.New("server: nil policy")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errors.New("server: closed")
	}
	if p.Name() == s.k.Policy().Name() {
		return nil // no-op switch; keep the memo and the counters
	}
	s.k.SetPolicy(p) // drops the memo
	s.switches++
	// The round also disarms the previous policy's self-wake when the
	// successor wants none.
	s.roundLocked("policy")
	return nil
}

// NoteForecast records that an advisor forecast completed, feeding the
// forecast counters served through Metrics.
func (s *Server) NoteForecast() {
	s.mu.Lock()
	s.forecasts++
	s.lastForecast = s.now()
	s.hasForecast = true
	s.mu.Unlock()
}
