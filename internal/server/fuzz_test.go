package server

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// FuzzDecode checks the protocol decoder never panics and that accepted
// messages re-encode.
func FuzzDecode(f *testing.F) {
	f.Add(`{"type":"hello","app_id":1,"nodes":64}`)
	f.Add(`{"type":"request","volume_gib":12.5,"work_s":100,"ideal_s":110}`)
	f.Add(`{"type":"grant","app_id":1,"bw_gibs":4,"seq":9}`)
	f.Add(`{"type":"complete"}`)
	f.Add(`{"type":"error","err":"boom"}`)
	f.Add(`{}`)
	f.Add(`{"type":"nope"}`)
	f.Add(`garbage`)

	f.Fuzz(func(t *testing.T, line string) {
		msg, err := decode([]byte(line))
		if err != nil {
			return
		}
		b, err := encode(msg)
		if err != nil {
			t.Fatalf("accepted message failed to encode: %v", err)
		}
		again, err := decode(b[:len(b)-1]) // strip the trailing newline
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Type != msg.Type {
			t.Fatalf("type changed through round trip: %q -> %q", msg.Type, again.Type)
		}
	})
}

// FuzzOutbox checks latest-value grant delivery against a model of what
// the client must see. Each input byte is one step on one session whose
// writer reaches the wire only when the fuzzer lets it: enqueue a grant
// (bandwidth from a three-value set, must or not), enqueue an error, or
// let the writer's held Write finish (a drain, after which the writer
// takes whatever queued meanwhile). Throughout, the outbox holds at most
// three entries. On the wire the welcome comes first and an error last;
// grant seqs run 1..k without gaps; a grant repeats the value written
// before it only when a must grant was queued for it, and every Write
// taken after a must grant carries a grant. Once drained, the last value
// written is the last verdict, and the grant lines number the grants
// enqueued minus those superseded.
func FuzzOutbox(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0xc0, 0x01, 0xc0})             // grants, drains
	f.Add([]byte{0x21, 0xc0, 0x01, 0x00, 0x01, 0xc0, 0x01, 0xc0}) // A→B→A behind a held write
	f.Add([]byte{0xc0, 0x22, 0xc0, 0x02, 0x22, 0xc0, 0xff, 0x01}) // must repeats, then an error
	f.Add([]byte{0x01, 0xff, 0xc0, 0x02, 0xc0})                   // an error queued behind a grant
	vals := [...]float64{0, 1.5, 4}
	f.Fuzz(func(t *testing.T, steps []byte) {
		srv, err := New(Config{Policy: core.FairShare{}, TotalBW: 10, NodeBW: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := newGateConn(true)
		sess, err := srv.register(conn, &Message{Type: TypeHello, AppID: 1, Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.finish(sess)
		defer func() { // free a writer a failed check left held
			conn.held.Store(false)
			close(conn.release)
		}()

		var (
			blocked  bool    // the writer sits in a held Write
			closed   bool    // an error was enqueued: the outbox takes nothing more
			accepted uint64  // grants the outbox took
			verdicts int     // how many of them
			last     float64 // the latest of them
			must     bool    // a must grant was queued since the last Write began
			writes   int     // Writes checked so far
			errored  bool    // an error line was written
			seq      uint64  // the last grant seq written
			held     float64 // the last grant value written
		)
		// check inspects the Write that just began.
		check := func() {
			conn.mu.Lock()
			w := conn.writes[writes]
			conn.mu.Unlock()
			msgs, err := decodeLines(w)
			if err != nil {
				t.Fatalf("write %d %q: %v", writes, w, err)
			}
			granted := false
			for i, m := range msgs {
				if errored {
					t.Fatalf("write %d: %s after the error", writes, m.Type)
				}
				if (m.Type == TypeWelcome) != (writes == 0 && i == 0) {
					t.Fatalf("write %d line %d is %s: the welcome must come first and once", writes, i, m.Type)
				}
				switch m.Type {
				case TypeGrant:
					if m.Seq != seq+1 {
						t.Fatalf("grant seq %d after %d", m.Seq, seq)
					}
					if seq > 0 && m.BW == held && !must {
						t.Fatalf("grant seq %d repeats bw %g, which the client holds, and answers no request", m.Seq, m.BW)
					}
					seq, held, granted = m.Seq, m.BW, true
				case TypeError:
					errored = true
				}
			}
			if must && !granted {
				t.Fatalf("write %d carries no grant, yet a must grant was queued for it", writes)
			}
			must = false
			writes++
		}
		// settle waits until the writer is held in a Write or parked idle.
		settle := func() {
			for {
				select {
				case <-conn.began:
					blocked = true
					check()
					return
				default:
				}
				if sess.idle() {
					return
				}
				runtime.Gosched()
			}
		}
		drain := func() {
			blocked = false
			conn.release <- struct{}{}
			settle()
		}

		settle() // the welcome's Write
		for _, b := range steps {
			switch {
			case b == 0xff:
				sess.enqueue(Message{Type: TypeError, Err: "boom"}, false)
				closed = true
			case b >= 0xc0:
				if blocked {
					drain()
				}
			default:
				bw, m := vals[int(b&0x1f)%len(vals)], b&0x20 != 0
				sess.enqueue(Message{Type: TypeGrant, AppID: 1, BW: bw}, m)
				if !closed {
					accepted++
					verdicts++
					last = bw
					must = must || m
				}
			}
			if !blocked {
				settle()
			}
			sess.outMu.Lock()
			n := len(sess.outbox)
			sess.outMu.Unlock()
			if n > 3 {
				t.Fatalf("outbox holds %d entries, want <= 3", n)
			}
		}
		for blocked {
			drain()
		}
		if closed && !errored {
			t.Fatal("the error never reached the wire")
		}
		if verdicts > 0 && (seq == 0 || held != last) {
			t.Fatalf("drained wire ends at bw %g (seq %d), want the last verdict %g", held, seq, last)
		}
		if verdicts == 0 && seq != 0 {
			t.Fatalf("%d grants written, none enqueued", seq)
		}
		if sup := sess.superseded.Load(); seq != accepted-sup {
			t.Fatalf("%d grant lines, want %d enqueued - %d superseded", seq, accepted, sup)
		}
	})
}
