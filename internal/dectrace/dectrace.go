// Package dectrace is the decision-trace layer: a compact record of
// every allocation decision point an execution engine resolves, whether
// the policy actually ran or the engine skipped it under a declared
// capability (core.SkipReason).
//
// Both engines emit the same records, built in one place: the decision
// kernel (engine.Kernel.Decide) writes them to the Trace sink of its
// engine.Observers, which the simulator fills from
// sim.Config.DecisionTrace and the TCP daemon from
// server.Config.DecisionTrace. So one toolchain reads both: a streaming
// JSONL writer for offline analysis (Writer/ReadAll), a fixed-capacity
// ring for a live daemon's recent history (Ring, served at /dectrace by
// ioschedd -dectrace), and replay schedulers (ForceFirst, FixedGrants)
// that force an alternative verdict at one recorded decision point so the
// counterfactual engine (internal/twin's Explain) can attribute
// stretch/SysEff deltas back to individual decisions.
//
// Tracing is strictly opt-in: with a nil sink both engines' hot paths are
// untouched (the steady daemon round stays allocation-free, pinned by
// TestSteadyRoundAllocationFree). With a sink attached the engine builds
// one Record per decision point and hands ownership to the sink; sinks
// must not block — the daemon calls them under its state lock.
package dectrace

import "repro/internal/core"

// Record is one decision point. Seq is the decision point's ordinal in
// the run (decisions + skips seen so far, i.e. the round index); it
// continues across snapshot resumes because the engines restore their
// run counters.
type Record struct {
	Seq uint64 `json:"seq"`
	// Time is the decision instant: simulated seconds in the simulator,
	// seconds since start on the daemon's clock.
	Time float64 `json:"t"`
	// Kind names what triggered the decision point: an event-kind set
	// like "compute-end" or "io-complete|release" in the simulator
	// (pipe-joined when several fire at one instant, "timer" when none
	// did — a burst-buffer crossing or a scheduler wake), or the message
	// type ("hello", "request", "complete", "leave", "wake", "policy")
	// on the daemon.
	Kind string `json:"kind,omitempty"`
	// Policy is the scheduling policy's report name.
	Policy string `json:"policy"`
	// Verdict is core.SkipReason.String(): "decide" when the policy ran,
	// else the skip reason ("memo", "saturating", "single-full-grant").
	Verdict string `json:"verdict"`
	// CandVersion is the engine's candidate-set version at the decision.
	CandVersion uint64 `json:"cand_version"`
	// TotalBW/NodeBW are the capacity the decision saw.
	TotalBW float64 `json:"total_bw_gibs"`
	NodeBW  float64 `json:"node_bw_gibs"`
	// Decisions/Skipped are the run counters after this decision point.
	Decisions int `json:"decisions"`
	Skipped   int `json:"skipped"`
	// Apps is the candidate set the decision was computed over, in the
	// engine's candidate order, captured before the verdict was applied.
	// Memo skips omit it (the set is the previous record's, unchanged).
	Apps []AppRecord `json:"apps,omitempty"`
	// Grants is the verdict's nonzero grant vector (empty for memo
	// skips, which re-apply the previous record's).
	Grants []GrantRecord `json:"grants,omitempty"`
}

// AppRecord is one candidate's scheduler-visible state at the decision.
type AppRecord struct {
	ID    int     `json:"id"`
	Nodes int     `json:"nodes"`
	Phase string  `json:"phase"`
	RemV  float64 `json:"rem_gib"`
	// Started and PendingSince are the discrete fields the Priority and
	// Timeout families order on.
	Started      bool    `json:"started,omitempty"`
	PendingSince float64 `json:"pending_since,omitempty"`
}

// GrantRecord is one application's bandwidth verdict.
type GrantRecord struct {
	ID int     `json:"id"`
	BW float64 `json:"bw_gibs"`
}

// Sink receives decision records. The engine allocates a fresh Record
// per decision point and transfers ownership: sinks may retain it.
// Implementations must be fast and must not block — the daemon invokes
// them while holding its state lock. Sinks used from a daemon must be
// safe for concurrent use (Ring and Writer are; Slice is not).
type Sink interface {
	Observe(r *Record)
}

// CaptureApps converts candidate views into AppRecords, appending to
// dst. Engines call it only when a sink is attached.
func CaptureApps(dst []AppRecord, views []*core.AppView) []AppRecord {
	for _, v := range views {
		dst = append(dst, AppRecord{
			ID:           v.ID,
			Nodes:        v.Nodes,
			Phase:        v.Phase.String(),
			RemV:         v.RemVolume,
			Started:      v.Started,
			PendingSince: v.PendingSince,
		})
	}
	return dst
}

// CaptureGrants converts a grant vector into GrantRecords, appending to
// dst.
func CaptureGrants(dst []GrantRecord, grants []core.Grant) []GrantRecord {
	for _, g := range grants {
		dst = append(dst, GrantRecord{ID: g.AppID, BW: g.BW})
	}
	return dst
}

// Slice collects every record in memory, in order. The cheapest sink for
// tests and for the counterfactual engine's recording pass. Not safe for
// concurrent use; use Ring behind a daemon.
type Slice struct {
	Records []*Record
}

// Observe implements Sink.
func (s *Slice) Observe(r *Record) { s.Records = append(s.Records, r) }

// Tee fans records out to several sinks (e.g. a live Ring plus a JSONL
// file). It is as concurrency-safe as its least safe element.
type Tee []Sink

// Observe implements Sink.
func (t Tee) Observe(r *Record) {
	for _, s := range t {
		s.Observe(r)
	}
}
