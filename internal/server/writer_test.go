package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWriterBatchesDrain checks delivery is one Write per outbox drain:
// grants queued while the writer sits in a Write leave together in the
// next one, in seq order, as the bytes three json.Marshals give.
func TestWriterBatchesDrain(t *testing.T) {
	srv, err := New(Config{Policy: core.FairShare{}, TotalBW: 10, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Two Writes are expected; the buffer keeps a third from hanging the
	// writer instead of failing the count below.
	conn := &gateConn{began: make(chan struct{}, 8), release: make(chan struct{})}
	sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: 7, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-conn.began // the writer is inside the welcome's Write
	want := ""
	for seq := uint64(1); seq <= 3; seq++ {
		g := Message{Type: TypeGrant, AppID: 7, BW: 1 / float64(seq), Seq: seq}
		sess.enqueue(g)
		b, err := json.Marshal(&g)
		if err != nil {
			t.Fatal(err)
		}
		want += string(b) + "\n"
	}
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
	settle := func() { // until every welcome and every grant pushed so far is written
		srv.mu.Lock()
		want := sessions + srv.pushes
		srv.mu.Unlock()
		for written < want {
			written += uint64(<-lines)
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
