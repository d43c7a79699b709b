package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is an application-side connection to the scheduler daemon. It is
// what an HPC application (or its I/O middleware) links against: call
// RequestIO before each I/O phase, watch the grant stream while
// transferring, and call CompleteIO afterwards.
//
// Grants arrive asynchronously — the server re-shares bandwidth whenever
// any application's state changes — so the client exposes them as a
// channel of bandwidth values.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // send's encode buffer, reused under wmu

	mu     sync.Mutex
	grants chan float64
	lastBW float64
	seq    uint64
	err    error
	closed bool
	done   chan struct{}

	// hello carries the registration verdict (nil or the server's
	// rejection) exactly once; helloOnce guards it.
	hello     chan error
	helloOnce sync.Once
}

// dialTimeout bounds how long Dial waits for the server's registration
// verdict (the welcome ack or an error).
const dialTimeout = 10 * time.Second

// Dial connects and registers the application with the daemon.
// Registration is synchronous: Dial returns only after the server
// acknowledged the hello with a welcome, so a rejection — a duplicate app
// ID, a malformed hello — surfaces here instead of later through Err.
func Dial(addr string, appID, nodes int) (*Client, error) {
	return DialWithProfile(addr, appID, nodes, nil)
}

// DialWithProfile registers the application together with its phase
// profile (the planned compute/I-O instances). The profile does not
// change scheduling; it makes the application's remaining work visible to
// the daemon's digital twin (Server.Snapshot, internal/twin), which
// cannot otherwise forecast past the current transfer.
func DialWithProfile(addr string, appID, nodes int, profile []PhaseSpec) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:   conn,
		grants: make(chan float64, 64),
		done:   make(chan struct{}),
		hello:  make(chan error, 1),
	}
	if err := c.send(&Message{Type: TypeHello, AppID: appID, Nodes: nodes, Profile: profile}); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	select {
	case err := <-c.hello:
		if err != nil {
			conn.Close()
			<-c.done
			return nil, err
		}
	case <-time.After(dialTimeout):
		conn.Close()
		<-c.done
		return nil, fmt.Errorf("server: no registration ack within %v", dialTimeout)
	}
	return c, nil
}

// settleHello delivers the registration verdict to Dial exactly once.
func (c *Client) settleHello(err error) {
	c.helloOnce.Do(func() { c.hello <- err })
}

// Grants returns the stream of bandwidth assignments (GiB/s). A zero
// value means "stall until the next grant". The channel closes when the
// connection ends.
func (c *Client) Grants() <-chan float64 { return c.grants }

// LastBW returns the most recent grant.
func (c *Client) LastBW() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastBW
}

// Seq returns the sequence number of the most recently applied grant:
// the count of grants the server has written to this session.
func (c *Client) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Err returns the terminal error of the connection, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// RequestIO announces an I/O phase of volume GiB, crediting work seconds
// of computation done since the last phase and ideal seconds of
// dedicated-mode instance time.
//
// The previous phase's grant state is discarded first, so a
// WaitForBandwidth immediately after RequestIO waits for this phase's
// verdict instead of returning the stale pre-complete bandwidth. (A push
// already in flight from a round that decided before the server saw the
// completion can still slip in; the window is one message latency.)
func (c *Client) RequestIO(volume, work, ideal float64) error {
	c.mu.Lock()
	c.lastBW = 0
	c.mu.Unlock()
	for drained := false; !drained; {
		select {
		case _, ok := <-c.grants:
			drained = !ok // a closed channel has nothing left to drain
		default:
			drained = true
		}
	}
	return c.send(&Message{Type: TypeRequest, Volume: volume, Work: work, IdealTime: ideal})
}

// Progress reports the remaining volume mid-transfer. Reporting zero
// remaining volume completes the phase on the server, exactly like
// CompleteIO.
func (c *Client) Progress(remaining float64) error {
	return c.send(&Message{Type: TypeProgress, Volume: remaining})
}

// CompleteIO reports the phase finished.
func (c *Client) CompleteIO() error {
	return c.send(&Message{Type: TypeComplete})
}

// Close deregisters and disconnects.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.send(&Message{Type: TypeBye})
	c.conn.Close()
	<-c.done
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// WaitForBandwidth blocks until a nonzero grant arrives or the timeout
// expires; it returns the granted bandwidth.
func (c *Client) WaitForBandwidth(timeout time.Duration) (float64, error) {
	if bw := c.LastBW(); bw > 0 {
		return bw, nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case bw, ok := <-c.grants:
			if !ok {
				if err := c.Err(); err != nil {
					return 0, err
				}
				return 0, errors.New("server: connection closed while waiting for bandwidth")
			}
			if bw > 0 {
				return bw, nil
			}
		case <-deadline.C:
			return 0, fmt.Errorf("server: no bandwidth within %v", timeout)
		}
	}
}

func (c *Client) send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b, err := appendMessage(c.wbuf[:0], m)
	if err != nil {
		return err
	}
	c.wbuf = b
	_, err = c.conn.Write(b)
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	defer close(c.grants)
	defer c.settleHello(errors.New("server: connection closed before registration ack"))
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var msg Message // every line decodes into it; nothing below keeps it
	for sc.Scan() {
		if err := decodeInto(sc.Bytes(), &msg); err != nil {
			c.fail(err)
			return
		}
		switch msg.Type {
		case TypeWelcome:
			c.settleHello(nil)
		case TypeGrant:
			c.mu.Lock()
			// The server's per-session sequence is strictly increasing
			// and written in order; the check is defensive, so a stale
			// or duplicated grant can never regress the applied value.
			stale := msg.Seq <= c.seq
			if !stale {
				c.seq = msg.Seq
				c.lastBW = msg.BW
			}
			c.mu.Unlock()
			if stale {
				continue
			}
			select {
			case c.grants <- msg.BW:
			default:
				// A slow consumer only ever needs the latest value;
				// drop the oldest to make room.
				select {
				case <-c.grants:
				default:
				}
				select {
				case c.grants <- msg.BW:
				default:
				}
			}
		case TypeError:
			err := errors.New(msg.Err)
			c.fail(err)
			c.settleHello(err)
			return
		default:
			c.fail(fmt.Errorf("server: unexpected %q from server", msg.Type))
			return
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		c.fail(err)
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}
