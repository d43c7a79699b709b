package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// decode parses one JSON line into a fresh message, for tests that keep
// what they read.
func decode(line []byte) (*Message, error) {
	m := new(Message)
	if err := decodeInto(line, m); err != nil {
		return nil, err
	}
	return m, nil
}

// fakeAddr satisfies net.Addr for the in-memory connections below.
type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// discardConn is a net.Conn that swallows writes; it lets tests and
// benchmarks drive the server's decision path directly, without sockets.
type discardConn struct{}

func (discardConn) Read(b []byte) (int, error)       { return 0, io.EOF }
func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// recordConn is a net.Conn that records everything written to it, so a
// test can assert exactly which messages the server pushed.
type recordConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Read(b []byte) (int, error) { return 0, io.EOF }
func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(b)
}
func (c *recordConn) Close() error                     { return nil }
func (c *recordConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *recordConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *recordConn) SetDeadline(time.Time) error      { return nil }
func (c *recordConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

// gateConn records each Write as one string. While held is set, a Write
// announces itself on began and waits inside the call for a token on
// release (or for release to close), so a test can queue messages behind
// a writer that is busy on the socket and decide when each drain leaves.
type gateConn struct {
	discardConn
	began   chan struct{} // one token per held Write begun
	release chan struct{}
	held    atomic.Bool
	mu      sync.Mutex
	writes  []string
}

func newGateConn(held bool) *gateConn {
	c := &gateConn{began: make(chan struct{}, 8), release: make(chan struct{})}
	c.held.Store(held)
	return c
}

func (c *gateConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, string(b))
	c.mu.Unlock()
	if c.held.Load() {
		c.began <- struct{}{}
		<-c.release
	}
	return len(b), nil
}

// messages decodes every line written so far.
func (c *gateConn) messages() ([]*Message, error) {
	c.mu.Lock()
	all := strings.Join(c.writes, "")
	c.mu.Unlock()
	return decodeLines(all)
}

// failConn is a peer that went away without a word: every Write fails,
// and Read delivers the hello, then blocks until Close.
type failConn struct {
	discardConn
	hello  io.Reader
	closed chan struct{}
	once   sync.Once
}

func newFailConn(hello string) *failConn {
	return &failConn{hello: strings.NewReader(hello), closed: make(chan struct{})}
}

func (c *failConn) Read(b []byte) (int, error) {
	if n, _ := c.hello.Read(b); n > 0 {
		return n, nil
	}
	<-c.closed
	return 0, net.ErrClosed
}
func (c *failConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
func (c *failConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// messages decodes every line written so far.
func (c *recordConn) messages() ([]*Message, error) {
	c.mu.Lock()
	all := c.buf.String()
	c.mu.Unlock()
	return decodeLines(all)
}

// decodeLines decodes newline-terminated JSON messages.
func decodeLines(s string) ([]*Message, error) {
	var out []*Message
	for _, l := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if l == "" {
			continue
		}
		m, err := decode([]byte(l))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// waitWritersIdle blocks until every session's writer is parked with an
// empty outbox: everything enqueued so far has been written or dropped.
// Between drains no grant can supersede another, so a test that drains
// after each round sees every round's grants on the wire.
func waitWritersIdle(t *testing.T, sessions map[int]*session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, sess := range sessions {
		for !sess.idle() {
			if time.Now().After(deadline) {
				t.Fatalf("app %d: writer still busy after 5s", sess.view.ID)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// idle reports whether the session's writer holds no batch and nothing
// is queued for it.
func (sess *session) idle() bool {
	sess.outMu.Lock()
	defer sess.outMu.Unlock()
	return len(sess.outbox) == 0 && !sess.writing
}
