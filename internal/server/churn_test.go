package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// rawClient speaks the wire protocol directly, so tests can observe the
// exact message stream the server pushes.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, sc: bufio.NewScanner(conn)}
}

func (r *rawClient) send(line string) {
	r.t.Helper()
	if _, err := r.conn.Write([]byte(line + "\n")); err != nil {
		r.t.Fatal(err)
	}
}

// next reads one message within the timeout; it returns nil on timeout.
func (r *rawClient) next(timeout time.Duration) *Message {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck
	if !r.sc.Scan() {
		return nil
	}
	m, err := decode(r.sc.Bytes())
	if err != nil {
		r.t.Fatalf("raw client: %v (line %q)", err, r.sc.Text())
	}
	return m
}

// expect reads one message and requires the given type.
func (r *rawClient) expect(typ string, timeout time.Duration) *Message {
	r.t.Helper()
	m := r.next(timeout)
	if m == nil {
		r.t.Fatalf("raw client: no %q message within %v", typ, timeout)
	}
	if m.Type != typ {
		r.t.Fatalf("raw client: got %q, want %q", m.Type, typ)
	}
	return m
}

// TestNoZeroGrantRepush is the regression test for the zero-grant push
// storm: a chatty transferring application must not make the daemon
// re-push bw=0 grants to a stalled peer on every round. The stalled peer
// gets its verdict exactly once, then silence until the verdict changes.
func TestNoZeroGrantRepush(t *testing.T) {
	_, addr := startServer(t, core.MaxSysEff()) // B=10, b=1

	hog := dialRaw(t, addr)
	hog.send(`{"type":"hello","app_id":1,"nodes":10}`)
	hog.expect(TypeWelcome, 2*time.Second)
	hog.send(`{"type":"request","volume_gib":1000,"work_s":1,"ideal_s":2}`)
	if m := hog.expect(TypeGrant, 2*time.Second); m.BW != 10 {
		t.Fatalf("hog granted %g, want the full 10", m.BW)
	}

	victim := dialRaw(t, addr)
	victim.send(`{"type":"hello","app_id":2,"nodes":10}`)
	victim.expect(TypeWelcome, 2*time.Second)
	victim.send(`{"type":"request","volume_gib":10,"work_s":1,"ideal_s":2}`)
	// The request's verdict arrives exactly once, even though it is a zero.
	m := victim.expect(TypeGrant, 2*time.Second)
	if m.BW != 0 || m.Seq != 1 {
		t.Fatalf("victim's verdict = bw %g seq %d, want the one zero-grant with seq 1", m.BW, m.Seq)
	}

	// The hog turns chatty: a storm of progress narrows triggers a round
	// each, and every round re-decides the same zero for the victim.
	for i := 0; i < 50; i++ {
		hog.send(fmt.Sprintf(`{"type":"progress","volume_gib":%d}`, 999-i))
	}
	hog.send(`{"type":"complete"}`)

	// The next message the victim sees must already be its promotion —
	// not one of 50 repeated zeros.
	m = victim.expect(TypeGrant, 2*time.Second)
	if m.BW != 10 {
		t.Errorf("victim's next message is bw %g (seq %d), want the 10 GiB/s promotion: zero-grant was re-pushed", m.BW, m.Seq)
	}
	if m.Seq != 2 {
		t.Errorf("victim's promotion has seq %d, want 2 (exactly one zero-grant before it)", m.Seq)
	}
}

// TestRerequestOwedAnswer: a candidate that requests again while it is
// still a candidate is owed an answer even when the verdict does not
// change — a round on the full-decision path (two candidates whose demand
// exceeds B, so neither the single nor the Saturating skip applies) must
// deliver the unchanged grant, and a granted session's view must be back
// in Transferring/Started after the request reset it to Pending.
func TestRerequestOwedAnswer(t *testing.T) {
	srv, addr := startServer(t, core.MaxSysEff()) // B=10, b=1

	// The hog credits no work, so its β·ρ̃ is 0 and MaxSysEff always
	// serves it first; the victim is left with nothing.
	hog := dialRaw(t, addr)
	hog.send(`{"type":"hello","app_id":1,"nodes":10}`)
	hog.expect(TypeWelcome, 2*time.Second)
	hog.send(`{"type":"request","volume_gib":1000}`)
	if m := hog.expect(TypeGrant, 2*time.Second); m.BW != 10 {
		t.Fatalf("hog granted %g, want the full 10", m.BW)
	}
	victim := dialRaw(t, addr)
	victim.send(`{"type":"hello","app_id":2,"nodes":10}`)
	victim.expect(TypeWelcome, 2*time.Second)
	victim.send(`{"type":"request","volume_gib":1000,"work_s":100,"ideal_s":200}`)
	if m := victim.expect(TypeGrant, 2*time.Second); m.BW != 0 || m.Seq != 1 {
		t.Fatalf("victim's verdict = bw %g seq %d, want a zero with seq 1", m.BW, m.Seq)
	}

	decisions := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.k.Decisions
	}
	for _, c := range []struct {
		name string
		rc   *rawClient
		id   int
		bw   float64
	}{{"hog", hog, 1, 10}, {"victim", victim, 2, 0}} {
		before := decisions()
		c.rc.send(`{"type":"request","volume_gib":500}`)
		m := c.rc.next(2 * time.Second)
		if m == nil {
			t.Fatalf("%s re-requested as a candidate and was never answered", c.name)
		}
		if m.Type != TypeGrant || m.BW != c.bw || m.Seq != 2 {
			t.Fatalf("%s's answer = %q bw %g seq %d, want grant bw %g seq 2", c.name, m.Type, m.BW, m.Seq, c.bw)
		}
		if after := decisions(); after != before+1 {
			t.Fatalf("%s's request ran %d policy decisions, want 1 (the full-decision path)", c.name, after-before)
		}
		srv.mu.Lock()
		v := srv.reg.get(c.id).view
		srv.mu.Unlock()
		if granted := c.bw > 0; granted && (v.Phase != core.Transferring || !v.Started) || !granted && v.Phase != core.Pending {
			t.Errorf("%s holds bw %g but its view is phase %v started %v", c.name, c.bw, v.Phase, v.Started)
		}
	}
}

// TestWakeTimerDisarmedOnEmptyCandidates is the regression test for the
// stale wake timer: when the candidate set empties (last complete, or the
// last I/O-wanting session dropping), an armed Waker timer must be
// disarmed so it cannot fire spurious rounds against a dead state.
func TestWakeTimerDisarmedOnEmptyCandidates(t *testing.T) {
	srv, err := New(Config{
		Policy:  core.NewTimeout(core.MaxSysEff(), 10), // window far past the test
		TotalBW: 10,
		NodeBW:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	hog, err := Dial(addr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.RequestIO(1000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := hog.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	starved, err := Dial(addr, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer starved.Close()
	if err := starved.RequestIO(10, 1, 2); err != nil {
		t.Fatal(err)
	}

	// A stalled pending session arms the Timeout policy's wake timer.
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.wakeArmed
	}, "wake timer armed while a session stalls")

	// Both sessions finish: the candidate set empties and the timer must
	// be disarmed with it.
	if err := starved.CompleteIO(); err != nil {
		t.Fatal(err)
	}
	if err := hog.CompleteIO(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.k.Cands.Len() == 0 && !srv.wakeArmed
	}, "wake timer disarmed after the candidate set emptied")

	// No spurious rounds fire afterwards.
	before := srv.Metrics().Rounds
	time.Sleep(100 * time.Millisecond)
	if after := srv.Metrics().Rounds; after != before {
		t.Errorf("%d spurious rounds after the candidate set emptied", after-before)
	}
}

// TestWakeTimerDisarmedOnLastDrop covers the second leak path: the last
// I/O-wanting session vanishing (crash, not complete) while stalled.
func TestWakeTimerDisarmedOnLastDrop(t *testing.T) {
	srv, err := New(Config{Policy: core.NewTimeout(core.MaxSysEff(), 10), TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	hog, err := Dial(addr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.RequestIO(1000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := hog.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	starved, err := Dial(addr, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := starved.RequestIO(10, 1, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.wakeArmed
	}, "wake timer armed")

	// Both connections crash without completing.
	starved.conn.Close()
	hog.conn.Close()
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.reg.count() == 0 && !srv.wakeArmed
	}, "wake timer disarmed after the last I/O-wanting session dropped")
}

// TestProgressToZeroCompletes is the regression test for the progress
// report that reaches volume zero: the view must complete — back to
// Computing, LastIOEnd updated, out of the candidate set — instead of
// lingering as a ghost Transferring view.
func TestProgressToZeroCompletes(t *testing.T) {
	srv, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RequestIO(40, 10, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Progress(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		sess := srv.reg.get(1)
		return sess != nil && sess.view.Phase == core.Computing &&
			sess.view.RemVolume == 0 && !sess.view.Started &&
			sess.view.LastIOEnd > 0 && !srv.k.Cands.Has(sess.slot) && sess.bw == 0
	}, "view completed after progress reached zero")
	if got := srv.Metrics().Candidates; got != 0 {
		t.Errorf("candidates = %d after progress-to-zero, want 0", got)
	}
	// The session remains usable for the next phase.
	if err := c.RequestIO(4, 1, 2); err != nil {
		t.Fatal(err)
	}
	bw, err := c.WaitForBandwidth(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bw != 4 {
		t.Errorf("post-completion request granted %g, want 4", bw)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChurnStress runs dozens of concurrent sessions joining, requesting,
// progressing, completing and leaving (some by crash) under a Waker
// policy, with raw-conn watchers asserting the per-session grant sequence
// is strictly monotone on the wire. Run with -race in CI.
func TestChurnStress(t *testing.T) {
	srv, err := New(Config{
		Policy:  core.NewTimeout(core.MinMax(0.5), 0.02),
		TotalBW: 16,
		NodeBW:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	// Watchers request a volume no one completes: they hold pending under
	// congestion and are promoted by the wake timer, receiving a long
	// grant stream whose seq must be strictly increasing, gap-free. They
	// read blocking (no deadlines — a poisoned Scanner would silently
	// stop checking) and are stopped by closing their connections.
	const watchers = 2
	watcherDone := make(chan error, watchers)
	watcherConns := make([]net.Conn, watchers)
	for w := 0; w < watchers; w++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		watcherConns[w] = conn
	}
	for w := 0; w < watchers; w++ {
		w := w
		conn := watcherConns[w]
		go func() {
			fmt.Fprintf(conn, `{"type":"hello","app_id":%d,"nodes":16}`+"\n", 100+w)
			fmt.Fprintf(conn, `{"type":"request","volume_gib":1e6,"work_s":1,"ideal_s":2}`+"\n")
			sc := bufio.NewScanner(conn)
			var seq uint64
			grants := 0
			for sc.Scan() {
				m, err := decode(sc.Bytes())
				if err != nil {
					watcherDone <- fmt.Errorf("watcher %d: %w", w, err)
					return
				}
				if m.Type != TypeGrant {
					continue
				}
				if m.Seq != seq+1 {
					watcherDone <- fmt.Errorf("watcher %d: grant seq %d after %d (regressed or gapped)", w, m.Seq, seq)
					return
				}
				seq = m.Seq
				grants++
			}
			// Scan ends when the test closes the connection.
			if grants == 0 {
				watcherDone <- fmt.Errorf("watcher %d: saw no grants at all", w)
				return
			}
			watcherDone <- nil
		}()
	}

	const clients = 24
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 1; id <= clients; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				c, err := dialRetry(addr, id, 2)
				if err != nil {
					errs <- fmt.Errorf("app %d iter %d: %w", id, iter, err)
					return
				}
				if err := c.RequestIO(0.5, 0.01, 0.012); err != nil {
					errs <- fmt.Errorf("app %d: %w", id, err)
					return
				}
				if _, err := c.WaitForBandwidth(10 * time.Second); err != nil {
					errs <- fmt.Errorf("app %d iter %d: %w", id, iter, err)
					return
				}
				if iter%2 == 0 {
					if err := c.Progress(0.25); err != nil {
						errs <- fmt.Errorf("app %d: %w", id, err)
						return
					}
				}
				if err := c.CompleteIO(); err != nil {
					errs <- fmt.Errorf("app %d: %w", id, err)
					return
				}
				if id%3 == 0 && iter == iters-1 {
					c.conn.Close() // crash instead of bye
					<-c.done
				} else if err := c.Close(); err != nil {
					errs <- fmt.Errorf("app %d close: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, conn := range watcherConns {
		conn.Close()
	}
	for w := 0; w < watchers; w++ {
		if err := <-watcherDone; err != nil {
			t.Error(err)
		}
	}

	m := srv.Metrics()
	if m.Rounds == 0 || m.Rounds != m.Decisions+m.Skipped {
		t.Errorf("round accounting broken: rounds %d, decisions %d, skipped %d", m.Rounds, m.Decisions, m.Skipped)
	}
	if m.GrantPushes == 0 {
		t.Error("no grants pushed during churn")
	}
}

// dialRetry retries Dial while the server still holds the previous
// incarnation of the app ID (its handler may not have unregistered yet).
func dialRetry(addr string, id, nodes int) (*Client, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr, id, nodes)
		if err == nil {
			return c, nil
		}
		if !strings.Contains(err.Error(), "already connected") || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionArenaBounded pins the session arena's bound: slots are
// released in finish and reused, so 1,000 sequential session lifecycles
// (join, request, complete, leave) with at most 8 sessions at once leave
// the arena at most 8 long — it grows with peak concurrency, not with
// sessions ever seen — and the candidate set empty.
func TestSessionArenaBounded(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var live []*session
	for i := 0; i < 1000; i++ {
		if len(live) == 8 {
			srv.finish(live[0])
			live = live[1:]
		}
		sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: i + 1, Nodes: 1 + i%5})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.dispatch(sess, &Message{Type: TypeRequest, Volume: 4, Work: 1, IdealTime: 2}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 { // some leave while still candidates
			if err := srv.dispatch(sess, &Message{Type: TypeComplete}); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, sess)
	}
	for _, sess := range live {
		srv.finish(sess)
	}
	srv.mu.Lock()
	arena, free := len(srv.arena), len(srv.free)
	srv.mu.Unlock()
	if arena > 8 || free != arena {
		t.Errorf("arena of %d slots (%d free) after 1000 lifecycles of at most 8 sessions, want at most 8, all free", arena, free)
	}
	if m := srv.Metrics(); m.Candidates != 0 || m.Sessions != 0 {
		t.Errorf("%d candidates, %d sessions after every session left, want 0 and 0", m.Candidates, m.Sessions)
	}
}
