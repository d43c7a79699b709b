package server

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dectrace"
)

// TestMetricsJSONShape pins the /metrics wire format: operators scrape
// it, so keys may be added deliberately but never renamed or dropped by
// accident. A mismatch here means the JSON contract changed.
func TestMetricsJSONShape(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"policy", "sessions", "candidates",
		"rounds", "decisions", "skipped",
		"skipped_memo", "skipped_saturating", "skipped_single_full_grant",
		"grant_pushes", "grant_superseded", "uptime_s",
		"forecasts_run", "policy_switches", "last_forecast_age_s",
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("metrics JSON lacks key %q", k)
		}
	}
	if len(got) != len(want) {
		t.Errorf("metrics JSON has %d keys, want %d: %v", len(got), len(want), got)
	}
	if got["policy"] != "MaxSysEff" {
		t.Errorf("policy = %v", got["policy"])
	}
	if got["last_forecast_age_s"] != -1.0 {
		t.Errorf("last_forecast_age_s = %v before any forecast, want -1", got["last_forecast_age_s"])
	}
}

// TestServerDecisionTrace drives a traced daemon through a client
// lifecycle and checks the trace against the metrics counters: one
// record per round, message-type kinds, sequence numbers matching the
// round counter, and the per-reason breakdown summing to Skipped.
func TestServerDecisionTrace(t *testing.T) {
	sink := &dectrace.Slice{}
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 10, NodeBW: 1, DecisionTrace: sink})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	defer srv.Close()

	c, err := Dial(ln.Addr().String(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RequestIO(40, 100, 110); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CompleteIO(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, func() bool { return srv.Metrics().Sessions == 0 }, "session drained")

	m := srv.Metrics()
	recs := sink.Records
	if uint64(len(recs)) != m.Rounds {
		t.Fatalf("%d trace records for %d rounds", len(recs), m.Rounds)
	}
	if m.SkippedMemo+m.SkippedSaturating+m.SkippedSingleFullGrant != m.Skipped {
		t.Errorf("skip breakdown %d+%d+%d != skipped %d",
			m.SkippedMemo, m.SkippedSaturating, m.SkippedSingleFullGrant, m.Skipped)
	}
	valid := map[string]bool{
		"hello": true, "request": true, "progress": true, "complete": true,
		"leave": true, "wake": true, "policy": true,
	}
	var decided, skipped uint64
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if !valid[r.Kind] {
			t.Errorf("record %d: kind %q is not a daemon message type", i, r.Kind)
		}
		if r.Policy != "MaxSysEff" {
			t.Errorf("record %d: policy %q", i, r.Policy)
		}
		if r.Verdict == core.SkipNone.String() {
			decided++
		} else {
			skipped++
		}
	}
	if decided != m.Decisions || skipped != m.Skipped {
		t.Errorf("trace verdicts %d/%d, metrics %d/%d", decided, skipped, m.Decisions, m.Skipped)
	}
}
