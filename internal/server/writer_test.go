package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWriterBatchesDrain checks delivery is one Write per outbox drain and
// only the latest grant leaves: three grants queued while the writer sits
// in a Write supersede one another in the outbox, and the next Write
// carries one line — the last value, stamped seq 1 by the writer — as
// the bytes json.Marshal gives.
func TestWriterBatchesDrain(t *testing.T) {
	srv, err := New(Config{Policy: core.FairShare{}, TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Two Writes are expected; began's buffer keeps a third from hanging
	// the writer instead of failing the count below.
	conn := newGateConn(true)
	sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: 7, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-conn.began // the writer is inside the welcome's Write
	for i := 1; i <= 3; i++ {
		sess.enqueue(Message{Type: TypeGrant, AppID: 7, BW: 1 / float64(i)}, false)
	}
	sess.outMu.Lock()
	queued := len(sess.outbox)
	sess.outMu.Unlock()
	if queued != 1 {
		t.Errorf("%d entries queued behind the writer, want the one latest grant", queued)
	}
	b, err := json.Marshal(&Message{Type: TypeGrant, AppID: 7, BW: 1.0 / 3, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := string(b) + "\n"
	close(conn.release)
	<-conn.began
	srv.finish(sess) // returns once the writer has exited
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.writes) != 2 {
		t.Fatalf("%d writes %q, want the welcome and one batch", len(conn.writes), conn.writes)
	}
	if conn.writes[0] != `{"type":"welcome","app_id":7}`+"\n" {
		t.Errorf("first write %q", conn.writes[0])
	}
	if conn.writes[1] != want {
		t.Errorf("batched write\n got %q\nwant %q", conn.writes[1], want)
	}
	if n := srv.Metrics().GrantsSuperseded; n != 2 {
		t.Errorf("GrantsSuperseded = %d, want the 2 replaced grants", n)
	}
}

// TestDeadWriterClosesOutbox is the regression test for the writer that
// died on a write error and left its outbox open: rounds kept queueing
// grants nobody would send, and the session stayed registered until the
// reader happened to fail too.
func TestDeadWriterClosesOutbox(t *testing.T) {
	srv, err := New(Config{Policy: core.FairShare{}, TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Through the handler: the failed welcome alone ends the session,
	// although the peer never sends another byte nor closes.
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		srv.handle(newFailConn(`{"type":"hello","app_id":1,"nodes":4}`+"\n"), nil, make(chan struct{}))
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still waiting on a connection whose writer is dead")
	}
	if n := srv.Metrics().Sessions; n != 0 {
		t.Errorf("%d sessions registered after the write failure, want 0", n)
	}

	// Directly: once the writer is gone, further rounds queue nothing.
	conn := newFailConn("")
	sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: 2, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.finish(sess)
	<-sess.outDone
	select {
	case <-conn.closed:
	default:
		t.Error("writer died without closing the connection")
	}
	before := srv.Metrics().GrantPushes
	for i := 0; i < 10; i++ {
		if err := srv.dispatch(sess, &Message{Type: TypeRequest, Volume: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if pushed := srv.Metrics().GrantPushes - before; pushed != 10 {
		t.Fatalf("%d grants pushed, want 10: the rounds did not target the session", pushed)
	}
	sess.outMu.Lock()
	defer sess.outMu.Unlock()
	if len(sess.outbox) != 0 {
		t.Errorf("%d messages queued behind a dead writer, want 0", len(sess.outbox))
	}
}

// TestOutboxBounded pins the outbox bound and what a released writer
// sends. Behind a writer stuck in a Write, 10,000 rounds that flip one
// session's verdict leave at most three entries queued — the welcome, one
// grant, one error — where every verdict used to queue. Released, the
// writer sends what the client lacks: one line carrying the latest value
// and the next seq if it differs from the value last written, nothing if
// it does not, and one line if a request's answer was among the grants
// superseded meanwhile.
func TestOutboxBounded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		answered bool // x completes and re-requests amid the flips
		flipped  bool // one flip more: the latest verdict differs from the value written
		want     []Message
	}{
		{"changed", false, true, []Message{{Type: TypeGrant, AppID: 1, BW: 4, Seq: 3}}},
		{"unchanged", false, false, nil},
		{"answered", true, false, []Message{{Type: TypeGrant, AppID: 1, BW: 2, Seq: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Policy: core.FairShare{}, TotalBW: 4, NodeBW: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			xc, yc := newGateConn(false), newGateConn(false)
			x, err := srv.register(xc, &Message{Type: TypeHello, AppID: 1, Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			y, err := srv.register(yc, &Message{Type: TypeHello, AppID: 2, Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.finish(y)
			defer srv.finish(x)
			released := false
			release := func() {
				if !released {
					released = true
					xc.held.Store(false)
					close(xc.release)
				}
			}
			defer release() // before finish, should a check fail while x's writer is held
			both := map[int]*session{1: x, 2: y}
			dispatch := func(sess *session, m *Message) {
				if err := srv.dispatch(sess, m); err != nil {
					t.Fatal(err)
				}
			}
			req, done := &Message{Type: TypeRequest, Volume: 100}, &Message{Type: TypeComplete}
			dispatch(x, req) // x alone: the full 4
			waitWritersIdle(t, both)
			xc.held.Store(true)
			dispatch(y, req) // x's share halves to 2, and its writer sticks in that Write
			<-xc.began
			peak := 0
			for i := 0; i < 10000; i++ {
				if i%2 == 0 {
					dispatch(y, done) // x back to 4
				} else {
					dispatch(y, req) // x down to 2
				}
				if tc.answered && i == 5000 {
					dispatch(x, done)
					dispatch(x, req) // answered with 4 while alone, then flipped on
				}
				x.outMu.Lock()
				peak = max(peak, len(x.outbox))
				x.outMu.Unlock()
			}
			if tc.flipped {
				dispatch(y, done)
			}
			if peak > 3 {
				t.Fatalf("outbox reached %d entries behind a stuck writer, want <= 3", peak)
			}
			release()
			waitWritersIdle(t, both)

			msgs, err := xc.messages()
			if err != nil {
				t.Fatal(err)
			}
			var got []Message
			for _, m := range msgs {
				got = append(got, *m)
			}
			want := append([]Message{
				{Type: TypeWelcome, AppID: 1},
				{Type: TypeGrant, AppID: 1, BW: 4, Seq: 1},
				{Type: TypeGrant, AppID: 1, BW: 2, Seq: 2}, // held in the stuck Write
			}, tc.want...)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("x's wire\n got %v\nwant %v", got, want)
			}

			// Every grant enqueued was written or counted superseded.
			lines := uint64(0)
			for _, c := range []*gateConn{xc, yc} {
				msgs, err := c.messages()
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range msgs {
					if m.Type == TypeGrant {
						lines++
					}
				}
			}
			if m := srv.Metrics(); lines != m.GrantPushes-m.GrantsSuperseded {
				t.Errorf("%d grant lines written, want pushes %d - superseded %d", lines, m.GrantPushes, m.GrantsSuperseded)
			}
		})
	}
}

// tallyConn reports how many lines each Write carried.
type tallyConn struct {
	discardConn
	lines chan int
}

func (c tallyConn) Write(b []byte) (int, error) {
	c.lines <- bytes.Count(b, []byte{'\n'})
	return len(b), nil
}

// TestPushRoundAllocationFree pins BenchmarkServerChurn's floor, which
// cmd/benchgate cannot (it skips zero baselines): a complete and a fresh
// request from one session of a congested population — two rounds, and
// their grant pushes encoded and written by the sessions' writers — cost
// no heap object anywhere in the process. Each cycle waits for its pushes
// to reach the connections, so the writers' work falls inside the
// measurement (AllocsPerRun runs on one processor).
func TestPushRoundAllocationFree(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 2, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const sessions = 8
	// Room for every line of a cycle, so no writer waits on the test.
	lines := make(chan int, 4*sessions)
	var sess []*session
	for id := 1; id <= sessions; id++ {
		s, err := srv.register(tallyConn{lines: lines}, &Message{Type: TypeHello, AppID: id, Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.finish(s)
		sess = append(sess, s)
	}
	written := uint64(0)
	// settle waits until every welcome and every grant pushed so far that
	// reaches the wire is written. A writer counts a dropped grant only
	// when it drains it, so the target is re-read until the two meet.
	settle := func() {
		for {
			srv.mu.Lock()
			want := sessions + srv.pushes - srv.superseded.Load()
			srv.mu.Unlock()
			if written >= want {
				return
			}
			select {
			case n := <-lines:
				written += uint64(n)
			default:
				runtime.Gosched()
			}
		}
	}
	req := &Message{Type: TypeRequest, Volume: 100, Work: 0.01, IdealTime: 0.02}
	done := &Message{Type: TypeComplete}
	for _, s := range sess {
		if err := srv.dispatch(s, req); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		if err := srv.dispatch(sess[0], done); err != nil {
			t.Fatal(err)
		}
		if err := srv.dispatch(sess[0], req); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	for i := 0; i < 50; i++ {
		cycle() // outboxes and encode buffers reach their high-water mark
	}
	before := written
	allocs := testing.AllocsPerRun(200, cycle)
	if written-before < 200 {
		t.Fatalf("%d grants written over 201 cycles: the rounds under test push nothing", written-before)
	}
	if allocs != 0 {
		t.Errorf("a complete + request cycle allocates %.1f objects, want 0", allocs)
	}
}
