package server

import (
	"testing"

	"repro/internal/core"
)

// newFakeClockServer builds a server whose clock the test controls
// through the returned pointer.
func newFakeClockServer(t *testing.T, pol core.Scheduler) (*Server, *float64) {
	t.Helper()
	srv, err := New(Config{Policy: pol, TotalBW: 8, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := new(float64)
	srv.clock = func() float64 { return *now }
	return srv, now
}

func TestSnapshotExportsSessions(t *testing.T) {
	srv, now := newFakeClockServer(t, core.MaxSysEff())
	profile := []PhaseSpec{{WorkS: 5, VolumeGiB: 12}, {WorkS: 3, VolumeGiB: 6}}

	*now = 1
	s1, err := srv.register(&recordConn{}, &Message{Type: TypeHello, AppID: 7, Nodes: 4, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	*now = 2
	s2, err := srv.register(&recordConn{}, &Message{Type: TypeHello, AppID: 3, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}

	*now = 6
	if err := srv.dispatch(s1, &Message{Type: TypeRequest, Volume: 12, Work: 5, IdealTime: 8}); err != nil {
		t.Fatal(err)
	}

	*now = 7
	snap := srv.Snapshot()
	if snap.Time != 7 || snap.Policy != "MaxSysEff" || snap.TotalBW != 8 || snap.NodeBW != 1 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Apps) != 2 || snap.Apps[0].ID != 3 || snap.Apps[1].ID != 7 {
		t.Fatalf("apps not ordered by ID: %+v", snap.Apps)
	}
	a7 := snap.Apps[1]
	if a7.Phase != "transferring" || a7.BW != 4 || a7.RemVolume != 12 || a7.Instance != 0 {
		t.Errorf("app 7 = %+v, want transferring at bw 4 with 12 GiB left", a7)
	}
	if a7.Release != 1 || a7.CreditedWork != 5 || a7.CreditedIdeal != 8 {
		t.Errorf("app 7 accounting = %+v", a7)
	}
	if len(a7.Profile) != 2 || a7.Profile[0] != profile[0] || a7.Profile[1] != profile[1] {
		t.Errorf("app 7 profile = %+v, want %+v", a7.Profile, profile)
	}
	if got := snap.Apps[0]; got.Phase != "computing" || got.Nodes != 2 || len(got.Profile) != 0 {
		t.Errorf("app 3 = %+v", got)
	}

	// Completing the phase advances the instance cursor; a spurious
	// complete while computing must not.
	*now = 9
	if err := srv.dispatch(s1, &Message{Type: TypeComplete}); err != nil {
		t.Fatal(err)
	}
	if err := srv.dispatch(s1, &Message{Type: TypeComplete}); err != nil {
		t.Fatal(err)
	}
	snap = srv.Snapshot()
	if a7 := snap.Apps[1]; a7.Instance != 1 || a7.Phase != "computing" || a7.LastIOEnd != 9 {
		t.Errorf("after complete: app 7 = %+v", a7)
	}

	srv.finish(s1)
	srv.finish(s2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSetPolicySwitchesAndRepushes(t *testing.T) {
	srv, now := newFakeClockServer(t, core.RoundRobin())
	conns := map[int]*recordConn{}
	sessions := map[int]*session{}
	// Three congested apps (demand 12 > B = 8) so policies disagree.
	for i, nodes := range []int{4, 4, 4} {
		id := i + 1
		conn := &recordConn{}
		*now = float64(i)
		sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: id, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		conns[id], sessions[id] = conn, sess
	}
	*now = 10
	for id := 1; id <= 3; id++ {
		if err := srv.dispatch(sessions[id], &Message{Type: TypeRequest, Volume: 100}); err != nil {
			t.Fatal(err)
		}
		*now++
	}
	// RoundRobin favors oldest LastIOEnd: apps 1 and 2 transfer, 3 stalls.
	if sessions[1].bw != 4 || sessions[2].bw != 4 || sessions[3].bw != 0 {
		t.Fatalf("RoundRobin grants = %g/%g/%g", sessions[1].bw, sessions[2].bw, sessions[3].bw)
	}

	// A same-policy switch is a no-op.
	if err := srv.SetPolicy(core.RoundRobin()); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.PolicySwitches != 0 {
		t.Fatalf("no-op switch counted: %+v", m)
	}

	// Switching to fair-share re-shares immediately: everyone gets the
	// max-min share of B = 8 over caps 4/4/4 (about 8/3 each).
	if err := srv.SetPolicy(core.FairShare{}); err != nil {
		t.Fatal(err)
	}
	shares := core.MaxMinFairShare([]float64{4, 4, 4}, 8)
	for id := 1; id <= 3; id++ {
		if sessions[id].bw != shares[id-1] {
			t.Errorf("after switch: app %d bw = %g, want %g", id, sessions[id].bw, shares[id-1])
		}
	}
	want := sessions[3].bw
	// Let the post-switch grants reach the wire before the departures
	// below supersede them.
	waitWritersIdle(t, sessions)
	m := srv.Metrics()
	if m.PolicySwitches != 1 || m.Policy != "fair-share" {
		t.Errorf("metrics after switch = %+v", m)
	}

	// Forecast bookkeeping.
	if m.ForecastsRun != 0 || m.LastForecastAgeS != -1 {
		t.Errorf("pre-forecast metrics = %+v", m)
	}
	srv.NoteForecast()
	*now += 5
	m = srv.Metrics()
	if m.ForecastsRun != 1 || m.LastForecastAgeS != 5 {
		t.Errorf("post-forecast metrics = %+v", m)
	}

	for _, sess := range sessions {
		srv.finish(sess)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The switch pushed a fresh verdict to the previously stalled app 3
	// (bw 0 -> fair share); later departures re-share again, so search
	// the stream rather than the tail.
	msgs, err := conns[3].messages()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, msg := range msgs {
		if msg.Type == TypeGrant && msg.BW == want {
			found = true
		}
	}
	if !found {
		t.Errorf("app 3 never saw the post-switch grant %g in %v", want, msgs)
	}
}
