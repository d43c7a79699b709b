package server

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkServerSaturation is the daemon's concurrent-churn benchmark,
// ioloadgen in miniature: every op is one full session lifecycle over a
// real loopback TCP connection — dial + hello handshake, one I/O request,
// the awaited grant, complete, bye — with GOMAXPROCS clients churning
// concurrently. It reports sessions/s, the number the daemon can sustain
// when a population connects, cycles and leaves at once; recorded in
// BENCH_baseline.json and gated by cmd/benchgate on ns/op (the TCP path's
// allocation count is scheduling-dependent, so allocs are not gated).
func BenchmarkServerSaturation(b *testing.B) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 1 << 20, NodeBW: 1})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	defer srv.Close()
	addr := ln.Addr().String()

	var ids atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := int(ids.Add(1))
			c, err := Dial(addr, id, 4)
			if err != nil {
				b.Error(err)
				return
			}
			if err := c.RequestIO(10, 0.01, 0.02); err != nil {
				b.Error(err)
				return
			}
			if _, err := c.WaitForBandwidth(10 * time.Second); err != nil {
				b.Error(err)
				return
			}
			if err := c.CompleteIO(); err != nil {
				b.Error(err)
				return
			}
			if err := c.Close(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "sessions/s")
	}
}

// newDirectServer builds a daemon with n registered sessions, driven
// through the internal message entry points (no sockets), so benchmarks
// measure the allocation path rather than the TCP stack.
func newDirectServer(tb testing.TB, pol core.Scheduler, totalBW, nodeBW float64, n, nodes int) (*Server, []*session) {
	tb.Helper()
	return newDirectServerCfg(tb, Config{Policy: pol, TotalBW: totalBW, NodeBW: nodeBW}, n, nodes)
}

// newDirectServerCfg is newDirectServer with a caller-supplied Config,
// for variants that attach telemetry or tracing.
func newDirectServerCfg(tb testing.TB, cfg Config, n, nodes int) (*Server, []*session) {
	tb.Helper()
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sessions := make([]*session, 0, n)
	for id := 1; id <= n; id++ {
		sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: id, Nodes: nodes})
		if err != nil {
			tb.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	tb.Cleanup(func() {
		for _, sess := range sessions {
			srv.finish(sess)
		}
		srv.Close() //nolint:errcheck
	})
	return srv, sessions
}

// BenchmarkServerChurn is the daemon's hot-path benchmark: a congested
// population where every op is one complete + one fresh request from a
// rotating session — two decision rounds plus the resulting grant pushes.
// It is recorded in BENCH_baseline.json and gated by cmd/benchgate: a
// reintroduced per-round rescan or per-round map rebuild fails the
// allocs/op gate on any hardware.
func BenchmarkServerChurn(b *testing.B) {
	const sessions = 64
	srv, sess := newDirectServer(b, core.MaxSysEff(), 10, 1, sessions, 1)
	req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
	done := &Message{Type: TypeComplete}
	// Half the population holds I/O open; the other half computes.
	for i := 0; i < sessions/2; i++ {
		if err := srv.dispatch(sess[i], req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sess[i%(sessions/2)]
		if err := srv.dispatch(s, done); err != nil {
			b.Fatal(err)
		}
		if err := srv.dispatch(s, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSteadyRound measures a round that changes nothing: a
// progress report that does not narrow the remaining volume. Memoizable
// policies resolve it as a memo skip; time-dependent policies re-run the
// allocator out of scratch buffers. Both must be allocation-free (pinned
// by TestSteadyRoundAllocationFree).
func BenchmarkServerSteadyRound(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  core.Scheduler
	}{
		{"memoized-fair-share", core.FairShare{}},
		{"full-MaxSysEff", core.MaxSysEff()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const sessions = 32
			srv, sess := newDirectServer(b, tc.pol, 10, 1, sessions, 1)
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

// TestSteadyRoundAllocationFree pins the acceptance criterion that a
// steady-state daemon round allocates nothing — for a memoizable policy
// (memo skip) and for a time-dependent one (full decide out of scratch).
func TestSteadyRoundAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  core.Scheduler
	}{
		{"memoized-fair-share", core.FairShare{}},
		{"full-MaxSysEff", core.MaxSysEff()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sessions = 32
			srv, sess := newDirectServer(t, tc.pol, 10, 1, sessions, 1)
			req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
			for _, s := range sess {
				if err := srv.dispatch(s, req); err != nil {
					t.Fatal(err)
				}
			}
			noop := &Message{Type: TypeProgress, Volume: 1e9}
			// Warm the scratch buffers to their high-water mark.
			for i := 0; i < 4; i++ {
				if err := srv.dispatch(sess[i], noop); err != nil {
					t.Fatal(err)
				}
			}
			before := srv.Metrics()
			allocs := testing.AllocsPerRun(200, func() {
				if err := srv.dispatch(sess[0], noop); err != nil {
					t.Fatal(err)
				}
			})
			after := srv.Metrics()
			if allocs != 0 {
				t.Errorf("steady-state round allocates %.1f objects, want 0", allocs)
			}
			if after.Rounds == before.Rounds {
				t.Fatal("no rounds ran during the allocation measurement")
			}
			if after.GrantPushes != before.GrantPushes {
				t.Errorf("steady-state rounds pushed %d grants, want none", after.GrantPushes-before.GrantPushes)
			}
		})
	}
}

// TestDecisionAccountingUnderSkipping checks Rounds = Decisions + Skipped
// and that a memoizable policy actually skips steady rounds while a
// capability-less one never does.
func TestDecisionAccountingUnderSkipping(t *testing.T) {
	run := func(pol core.Scheduler) Metrics {
		srv, sess := newDirectServer(t, pol, 10, 1, 8, 2)
		req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
		noop := &Message{Type: TypeProgress, Volume: 1e9}
		for _, s := range sess {
			if err := srv.dispatch(s, req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := srv.dispatch(sess[i%len(sess)], noop); err != nil {
				t.Fatal(err)
			}
		}
		return srv.Metrics()
	}

	memo := run(core.RoundRobin())
	if memo.Rounds != memo.Decisions+memo.Skipped {
		t.Errorf("RoundRobin: rounds %d != decisions %d + skipped %d", memo.Rounds, memo.Decisions, memo.Skipped)
	}
	if memo.Skipped == 0 {
		t.Error("RoundRobin skipped no steady rounds")
	}

	raw := run(stripped{core.RoundRobin()})
	if raw.Skipped != 0 {
		t.Errorf("capability-stripped policy skipped %d rounds", raw.Skipped)
	}
	if raw.Rounds != raw.Decisions {
		t.Errorf("stripped: rounds %d != decisions %d", raw.Rounds, raw.Decisions)
	}
	// Same message load → same round count: Decisions+Skipped of the
	// capable run matches the per-message decision count of the
	// invoke-every-round daemon.
	if memo.Rounds != raw.Rounds {
		t.Errorf("capable rounds %d != stripped rounds %d for the same load", memo.Rounds, raw.Rounds)
	}
}

// BenchmarkCodec prices the wire codec per message, on the three messages
// the benchmark's server.codec_* probes use: encode is appendMessage into
// a reused buffer, decode is decodeInto (fast path, then Validate) into a
// reused message. Recorded in BENCH_baseline.json and gated at 0 allocs.
func BenchmarkCodec(b *testing.B) {
	msgs := []struct {
		name string
		msg  Message
	}{
		{"grant", Message{Type: TypeGrant, AppID: 17, BW: 0.38629032258064516, Seq: 123456}},
		{"request", Message{Type: TypeRequest, Volume: 1, Work: 812.25, IdealTime: 1012.5}},
		{"hello", Message{Type: TypeHello, AppID: 17, Nodes: 64}},
	}
	for i := range msgs {
		m := &msgs[i].msg
		b.Run("encode/"+msgs[i].name, func(b *testing.B) {
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := appendMessage(buf[:0], m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for i := range msgs {
		line, err := encode(&msgs[i].msg)
		if err != nil {
			b.Fatal(err)
		}
		line = line[:len(line)-1]
		b.Run("decode/"+msgs[i].name, func(b *testing.B) {
			into := new(Message)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decodeInto(line, into); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
