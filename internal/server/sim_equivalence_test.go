package server

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// This file proves the daemon's allocation path equivalent to the
// simulator's: a scripted scenario — derived from a simulator run so the
// two engines see identical decision instants — is replayed through the
// server's message-handling entry points under an exact fake clock, and
// every per-event bandwidth verdict must match the simulator's trace bit
// for bit. The same replay against a capability-stripped wrapper of the
// policy (forcing the invoke-every-round cadence) must produce identical
// verdicts and identical grant pushes, proving the daemon's decision
// skipping unobservable.

// stripped hides a policy's capability and scratch interfaces.
type stripped struct{ inner core.Scheduler }

func (p stripped) Name() string { return "stripped(" + p.inner.Name() + ")" }
func (p stripped) Allocate(now float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	return p.inner.Allocate(now, apps, cap)
}

const (
	evHello = iota
	evRequest
	evComplete
)

// scriptEvent is one daemon message at an exact instant.
type scriptEvent struct {
	t    float64
	app  int
	kind int

	nodes            int
	vol, work, ideal float64
}

// buildScript derives the daemon message script from a simulator run:
// hello at each release, request at each compute→I/O transition, complete
// at each I/O→compute transition (or the app's finish).
func buildScript(t *testing.T, p *platform.Platform, apps []*platform.App, tr *sim.Trace, res *sim.Result) []scriptEvent {
	t.Helper()
	finish := map[int]float64{}
	for _, a := range res.Apps {
		finish[a.ID] = a.Finish
	}
	var evs []scriptEvent
	for _, a := range apps {
		evs = append(evs, scriptEvent{t: a.Release, app: a.ID, kind: evHello, nodes: a.Nodes})
		idx := 0
		prevIO := false
		for _, s := range tr.Segments {
			if s.AppID != a.ID {
				continue
			}
			isIO := s.Phase == core.Pending || s.Phase == core.Transferring
			if isIO && !prevIO {
				if idx >= len(a.Instances) {
					t.Fatalf("app %d: more I/O runs than instances", a.ID)
				}
				inst := a.Instances[idx]
				evs = append(evs, scriptEvent{
					t: s.Start, app: a.ID, kind: evRequest,
					vol: inst.Volume, work: inst.Work, ideal: inst.Work + a.IOTime(p, idx),
				})
			}
			if !isIO && prevIO {
				evs = append(evs, scriptEvent{t: s.Start, app: a.ID, kind: evComplete})
				idx++
			}
			prevIO = isIO
		}
		if prevIO {
			evs = append(evs, scriptEvent{t: finish[a.ID], app: a.ID, kind: evComplete})
			idx++
		}
		if idx != len(a.Instances) {
			t.Fatalf("app %d: script covers %d of %d instances", a.ID, idx, len(a.Instances))
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	for i := 1; i < len(evs); i++ {
		if evs[i].t == evs[i-1].t {
			t.Fatalf("scenario has simultaneous events at t=%g (apps %d and %d): "+
				"per-message daemon rounds and per-instant simulator decisions only "+
				"correspond when event times are distinct; adjust the scenario",
				evs[i].t, evs[i-1].app, evs[i].app)
		}
	}
	return evs
}

// expectedBW returns the simulator's bandwidth for an app just after
// instant t: the bandwidth of the trace segment containing t, or zero.
func expectedBW(tr *sim.Trace, app int, t float64) float64 {
	for _, s := range tr.Segments {
		if s.AppID == app && s.Start <= t && t < s.End && s.Phase == core.Transferring {
			return s.BW
		}
	}
	return 0
}

// replayResult is what one scripted daemon replay observed.
type replayResult struct {
	// bw[i] maps app → sess.bw right after script event i.
	bw []map[int]float64
	// grants maps app → the grant messages pushed to it, in wire order.
	grants map[int][]Message

	rounds, decisions, skipped uint64
}

// replayScript drives a daemon through the script via its internal
// message entry points, under an exact fake clock.
func replayScript(t *testing.T, pol core.Scheduler, B, b float64, script []scriptEvent) replayResult {
	t.Helper()
	srv, err := New(Config{Policy: pol, TotalBW: B, NodeBW: b})
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	srv.clock = func() float64 { return now }

	sessions := map[int]*session{}
	conns := map[int]*recordConn{}
	res := replayResult{grants: map[int][]Message{}}
	for _, ev := range script {
		now = ev.t
		switch ev.kind {
		case evHello:
			conn := &recordConn{}
			sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: ev.app, Nodes: ev.nodes})
			if err != nil {
				t.Fatalf("t=%g: register app %d: %v", ev.t, ev.app, err)
			}
			sessions[ev.app] = sess
			conns[ev.app] = conn
		case evRequest:
			err := srv.dispatch(sessions[ev.app], &Message{
				Type: TypeRequest, Volume: ev.vol, Work: ev.work, IdealTime: ev.ideal,
			})
			if err != nil {
				t.Fatalf("t=%g: request app %d: %v", ev.t, ev.app, err)
			}
		case evComplete:
			if err := srv.dispatch(sessions[ev.app], &Message{Type: TypeComplete}); err != nil {
				t.Fatalf("t=%g: complete app %d: %v", ev.t, ev.app, err)
			}
		}
		// Drained after every event, delivery is deterministic: the
		// capable and stripped replays' wire streams compare exactly.
		waitWritersIdle(t, sessions)
		snap := make(map[int]float64, len(sessions))
		for id, sess := range sessions {
			snap[id] = sess.bw
		}
		res.bw = append(res.bw, snap)
	}
	c := srv.k.Counters
	res.rounds, res.decisions, res.skipped = uint64(c.Decisions+c.Skipped), uint64(c.Decisions), uint64(c.Skipped)

	// Drain the writers and collect what each client was pushed.
	for _, sess := range sessions {
		srv.finish(sess)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for id, conn := range conns {
		msgs, err := conn.messages()
		if err != nil {
			t.Fatalf("app %d: parsing pushed messages: %v", id, err)
		}
		for _, m := range msgs {
			if m.Type == TypeGrant {
				res.grants[id] = append(res.grants[id], *m)
			}
		}
	}
	return res
}

// equivalenceScenario is a congested three-application mix with distinct
// event times under all tested policies.
func equivalenceScenario() (B, b float64, p *platform.Platform, apps []*platform.App) {
	B, b = 8, 1
	p = &platform.Platform{Name: "eq", Nodes: 64, NodeBW: b, TotalBW: B}
	apps = []*platform.App{
		{ID: 1, Name: "a1", Nodes: 4, Release: 0, Instances: []platform.Instance{
			{Work: 2, Volume: 8.25}, {Work: 1.125, Volume: 4.5},
		}},
		{ID: 2, Name: "a2", Nodes: 8, Release: 0.5, Instances: []platform.Instance{
			{Work: 1.0625, Volume: 15.75},
		}},
		{ID: 3, Name: "a3", Nodes: 2, Release: 1.25, Instances: []platform.Instance{
			{Work: 0.875, Volume: 2.25}, {Work: 0.53125, Volume: 3.125},
		}},
	}
	return B, b, p, apps
}

func TestDaemonMatchesSimulator(t *testing.T) {
	policies := []string{"MaxSysEff", "Priority-RoundRobin", "RoundRobin", "fair-share"}
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			B, b, p, apps := equivalenceScenario()
			pol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := &sim.Trace{}
			simRes, err := sim.Run(sim.Config{
				Platform: p, Scheduler: pol, Apps: apps, Trace: tr, CheckGrants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			script := buildScript(t, p, apps, tr, simRes)

			daemonPol, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := replayScript(t, daemonPol, B, b, script)

			// Every per-event bandwidth verdict matches the simulator's,
			// bit for bit.
			for i, ev := range script {
				for id, bw := range got.bw[i] {
					want := expectedBW(tr, id, ev.t)
					if bw != want {
						t.Errorf("event %d (t=%g, app %d %s): daemon bw[app %d] = %g, sim = %g",
							i, ev.t, ev.app, kindName(ev.kind), id, bw, want)
					}
				}
			}

			// Decision accounting matches: the daemon ran one round per
			// message instant with candidates, exactly the simulator's
			// decision points, and classified them identically.
			if got.rounds != uint64(simRes.Decisions+simRes.Skipped) {
				t.Errorf("daemon rounds = %d, sim decisions+skipped = %d",
					got.rounds, simRes.Decisions+simRes.Skipped)
			}
			if got.decisions != uint64(simRes.Decisions) || got.skipped != uint64(simRes.Skipped) {
				t.Errorf("daemon decisions/skipped = %d/%d, sim = %d/%d",
					got.decisions, got.skipped, simRes.Decisions, simRes.Skipped)
			}

			// The capability-stripped replay — every round invokes the
			// policy — produces identical verdicts and identical pushes,
			// so skipping is unobservable to clients.
			raw := replayScript(t, stripped{daemonPol}, B, b, script)
			if raw.skipped != 0 || raw.decisions != raw.rounds {
				t.Errorf("stripped policy skipped %d of %d rounds", raw.skipped, raw.rounds)
			}
			for i := range script {
				for id, bw := range got.bw[i] {
					if raw.bw[i][id] != bw {
						t.Errorf("event %d: capable bw[app %d] = %g, stripped = %g",
							i, id, bw, raw.bw[i][id])
					}
				}
			}
			for id, msgs := range got.grants {
				if fmt.Sprint(msgs) != fmt.Sprint(raw.grants[id]) {
					t.Errorf("app %d pushed grants differ:\ncapable:  %v\nstripped: %v",
						id, msgs, raw.grants[id])
				}
			}
		})
	}
}

func kindName(k int) string {
	switch k {
	case evHello:
		return "hello"
	case evRequest:
		return "request"
	case evComplete:
		return "complete"
	}
	return "?"
}
