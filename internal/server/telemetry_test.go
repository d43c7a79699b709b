package server

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestSteadyRoundTelemetryAllocationFree pins the enabled-telemetry half
// of the cost contract: with a bounded probe attached (ring buffer,
// fixed-array histograms), the steady-state round is still
// allocation-free. The disabled half is TestSteadyRoundAllocationFree.
func TestSteadyRoundTelemetryAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pol      core.Scheduler
		sessions int
	}{
		{"memoized-fair-share", core.FairShare{}, 32},
		{"full-MaxSysEff", core.MaxSysEff(), 32},
		// Past slices.SortStableFunc's 20-element insertion blocks: the
		// heuristics' heap and the share policies' merging sort stay
		// allocation-free.
		// Timeout is not memoizable, so fair-share re-sorts every round.
		{"full-MaxSysEff-96", core.MaxSysEff(), 96},
		{"full-Timeout-fair-share-96", core.NewTimeout(core.FairShare{}, 1e9), 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sessions := tc.sessions
			// MaxPoints small enough that the measured rounds wrap the
			// ring, so the overwrite path is what gets measured.
			probe := &telemetry.Probe{MaxPoints: 64}
			srv, sess := newDirectServerCfg(t, Config{
				Policy: tc.pol, TotalBW: 10, NodeBW: 1, Telemetry: probe,
			}, sessions, 1)
			req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
			for _, s := range sess {
				if err := srv.dispatch(s, req); err != nil {
					t.Fatal(err)
				}
			}
			noop := &Message{Type: TypeProgress, Volume: 1e9}
			// Warm the scratch buffers and the probe's ring allocation.
			for i := 0; i < 4; i++ {
				if err := srv.dispatch(sess[i], noop); err != nil {
					t.Fatal(err)
				}
			}
			before := probe.Snapshot()
			allocs := testing.AllocsPerRun(200, func() {
				if err := srv.dispatch(sess[0], noop); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("telemetry-enabled steady round allocates %.1f objects, want 0", allocs)
			}
			after := probe.Snapshot()
			if len(after.Points) != 64 {
				t.Errorf("probe holds %d points, want the full ring of 64", len(after.Points))
			}
			rh := after.Histograms["ioschedd_round_duration_seconds"]
			if rh.Count <= before.Histograms["ioschedd_round_duration_seconds"].Count {
				t.Error("round-duration histogram did not advance during the measurement")
			}
			ah := after.Histograms["ioschedd_decision_apply_seconds"]
			if ah.Count == 0 {
				t.Error("decision-apply histogram is empty after dispatched rounds")
			}
		})
	}
}

// replayScriptProbe replays the scripted scenario through the daemon's
// message entry points with a telemetry probe and a decision-trace sink
// attached, under the same exact fake clock as replayScript, and
// snapshots the probe before the sessions drain: finish triggers extra
// "leave" rounds at the frozen final clock that the simulator run has no
// counterpart for.
func replayScriptProbe(t *testing.T, pol core.Scheduler, B, b float64, script []scriptEvent, pr *telemetry.Probe, trace dectrace.Sink) *telemetry.Telemetry {
	t.Helper()
	srv, err := New(Config{Policy: pol, TotalBW: B, NodeBW: b, Telemetry: pr, DecisionTrace: trace})
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	srv.clock = func() float64 { return now }

	sessions := map[int]*session{}
	for _, ev := range script {
		now = ev.t
		switch ev.kind {
		case evHello:
			sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: ev.app, Nodes: ev.nodes})
			if err != nil {
				t.Fatalf("t=%g: register app %d: %v", ev.t, ev.app, err)
			}
			sessions[ev.app] = sess
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
	}
	tel := pr.Snapshot()
	for _, sess := range sessions {
		srv.finish(sess)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return tel
}

// TestDaemonTelemetryMatchesSimulator proves the two capture sites
// equivalent: the simulator run and its scripted daemon replay produce
// the same congestion series, bit for bit at every sample point, and the
// same candidates and grants in every decision record, element for
// element. Both engines walk the kernel's candidate view in ascending
// application-ID order through the shared telemetry.PointBuilder — also
// when the configured IDs descend with config order, the
// "descending-ids" cases — so any divergence here means one engine's
// sampled state (grants, demand, stretch) drifted from the other's.
func TestDaemonTelemetryMatchesSimulator(t *testing.T) {
	policies := []string{"MaxSysEff", "Priority-RoundRobin", "RoundRobin", "fair-share"}
	for _, name := range policies {
		t.Run(name, func(t *testing.T) {
			B, b, p, apps := equivalenceScenario()
			checkTelemetryMatches(t, name, B, b, p, apps)
		})
	}
	for _, name := range policies {
		t.Run("descending-ids/"+name, func(t *testing.T) {
			B, b, p, apps := equivalenceScenario()
			for i, id := range []int{9, 7, 3} {
				apps[i].ID = id
			}
			checkTelemetryMatches(t, name, B, b, p, apps)
		})
	}
}

func checkTelemetryMatches(t *testing.T, name string, B, b float64, p *platform.Platform, apps []*platform.App) {
	pol, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := &sim.Trace{}
	simProbe := &telemetry.Probe{}
	simTrace := &dectrace.Slice{}
	simRes, err := sim.Run(sim.Config{
		Platform: p, Scheduler: pol, Apps: apps, Trace: tr,
		CheckGrants: true, Telemetry: simProbe, DecisionTrace: simTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Telemetry == nil || len(simRes.Telemetry.Points) == 0 {
		t.Fatal("simulator run captured no telemetry")
	}
	script := buildScript(t, p, apps, tr, simRes)

	daemonPol, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	daemonTrace := &dectrace.Slice{}
	got := replayScriptProbe(t, daemonPol, B, b, script, &telemetry.Probe{}, daemonTrace)

	want := simRes.Telemetry.Points
	if len(got.Points) != len(want) {
		t.Fatalf("daemon sampled %d points, sim %d", len(got.Points), len(want))
	}
	for i, g := range got.Points {
		if g != want[i] {
			t.Errorf("point %d differs:\ndaemon: %+v\nsim:    %+v", i, g, want[i])
		}
	}
	// The daemon's leave rounds at the end have no simulator counterpart.
	if len(daemonTrace.Records) < len(simTrace.Records) {
		t.Fatalf("daemon traced %d records, sim %d", len(daemonTrace.Records), len(simTrace.Records))
	}
	// The candidates' order and the grants agree element for element (the
	// daemon's RemVolume moves only with progress reports, so the app
	// records are compared by ID).
	ids := func(apps []dectrace.AppRecord) (out []int) {
		for _, a := range apps {
			out = append(out, a.ID)
		}
		return out
	}
	for i, w := range simTrace.Records {
		d := daemonTrace.Records[i]
		if d.Verdict != w.Verdict || !slices.Equal(ids(d.Apps), ids(w.Apps)) || !slices.Equal(d.Grants, w.Grants) {
			t.Errorf("record %d differs:\ndaemon: %s %v %+v\nsim:    %s %v %+v",
				i, d.Verdict, ids(d.Apps), d.Grants, w.Verdict, ids(w.Apps), w.Grants)
		}
	}
}

// TestWritePrometheus drives a loaded daemon and checks the text
// exposition is valid Prometheus format carrying the congestion gauges
// and the service-latency histograms.
func TestWritePrometheus(t *testing.T) {
	const sessions = 8
	srv, sess := newDirectServerCfg(t, Config{
		Policy: core.MaxSysEff(), TotalBW: 4, NodeBW: 1, Telemetry: &telemetry.Probe{},
	}, sessions, 1)
	req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
	for _, s := range sess {
		if err := srv.dispatch(s, req); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	gauge := func(name string) float64 {
		t.Helper()
		m := fams[name]
		if m == nil {
			t.Fatalf("missing metric %s", name)
		}
		if m.Type != "gauge" && m.Type != "counter" {
			t.Fatalf("%s has type %q", name, m.Type)
		}
		v, ok := m.Samples[name]
		if !ok {
			t.Fatalf("%s has no unlabeled sample", name)
		}
		return v
	}
	// 8 single-node candidates over B=4: saturated and 2x backlogged.
	if v := gauge("ioschedd_utilization_ratio"); v != 1 {
		t.Errorf("utilization = %g, want 1", v)
	}
	if v := gauge("ioschedd_backlog_ratio"); v != 2 {
		t.Errorf("backlog = %g, want 2", v)
	}
	if v := gauge("ioschedd_candidates"); v != sessions {
		t.Errorf("candidates = %g, want %d", v, sessions)
	}
	if v := gauge("ioschedd_rounds_total"); v == 0 {
		t.Error("rounds counter is zero after dispatched traffic")
	}

	h := fams["ioschedd_round_duration_seconds"]
	if h == nil {
		t.Fatal("missing round-duration histogram")
	}
	if h.Type != "histogram" {
		t.Fatalf("round-duration type = %q, want histogram", h.Type)
	}
	if c := h.Samples["ioschedd_round_duration_seconds_count"]; c == 0 {
		t.Error("round-duration histogram count is zero")
	}
}

// BenchmarkServerRoundTelemetry is the enabled-vs-disabled overhead
// benchmark for the daemon capture site: the same steady round as
// BenchmarkServerSteadyRound/full-MaxSysEff, with and without a bounded
// probe. Both variants are recorded in BENCH_baseline.json and gated by
// cmd/benchgate; the "off" variant must track the untelemetered baseline.
func BenchmarkServerRoundTelemetry(b *testing.B) {
	for _, tc := range []struct {
		name  string
		probe *telemetry.Probe
	}{
		{"on", &telemetry.Probe{MaxPoints: 4096}},
		{"off", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const sessions = 32
			srv, sess := newDirectServerCfg(b, Config{
				Policy: core.MaxSysEff(), TotalBW: 10, NodeBW: 1, Telemetry: tc.probe,
			}, sessions, 1)
			req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
			for _, s := range sess {
				if err := srv.dispatch(s, req); err != nil {
					b.Fatal(err)
				}
			}
			noop := &Message{Type: TypeProgress, Volume: 1e9}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.dispatch(sess[i%sessions], noop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
