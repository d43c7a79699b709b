package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// --- core: the policy call, measured from outside ---------------------------

// tracedPolicy wraps a scheduler and times every policy call. It forwards
// Name, Allocate, AllocateInto and the three capability methods, so the
// engine resolves exactly the capabilities of the inner policy and takes
// the same decisions and skips: the wrapper observes, it does not steer.
// The engines call it from one goroutine at a time (the simulator's loop,
// the daemon under its round lock); the counters are atomics only because
// the benchmark reads them while a daemon runs. It takes no lock and
// allocates nothing.
type tracedPolicy struct {
	inner           core.Scheduler
	memoizable      bool
	saturating      bool
	singleFullGrant bool

	calls atomic.Int64
	ns    atomic.Int64
	apps  atomic.Int64

	// Policy calls are too many to keep as spans, so 1 in 64 is kept as an
	// exemplar, under the span and operation the harness names here
	// before it calls into the engine (simulator workloads only).
	parent    int32
	op        int64
	exemplars []span
}

// wakingPolicy additionally forwards NextWake. core.CapsOf resolves Waker
// by type assertion alone, so giving every wrapper a NextWake would turn
// every policy into a waker and change the engine's behaviour; this
// variant is used only around an inner core.Waker.
type wakingPolicy struct {
	*tracedPolicy
	waker core.Waker
}

func (w wakingPolicy) NextWake(now float64, apps []*core.AppView) (float64, bool) {
	return w.waker.NextWake(now, apps)
}

const maxExemplars = 4096

// tracePolicy wraps inner; the returned scheduler is what the engine
// gets, the *tracedPolicy holds the counts.
func tracePolicy(inner core.Scheduler) (core.Scheduler, *tracedPolicy) {
	t := &tracedPolicy{
		inner:           inner,
		memoizable:      core.IsMemoizable(inner),
		saturating:      core.IsSaturating(inner),
		singleFullGrant: core.IsSingleFullGrant(inner),
		parent:          -1,
		exemplars:       make([]span, 0, maxExemplars),
	}
	if w, ok := inner.(core.Waker); ok {
		return wakingPolicy{t, w}, t
	}
	return t, t
}

func (t *tracedPolicy) Name() string          { return t.inner.Name() }
func (t *tracedPolicy) Memoizable() bool      { return t.memoizable }
func (t *tracedPolicy) Saturating() bool      { return t.saturating }
func (t *tracedPolicy) SingleFullGrant() bool { return t.singleFullGrant }

func (t *tracedPolicy) Allocate(now float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	start := nowNS()
	grants := t.inner.Allocate(now, apps, cap)
	t.observe(start, len(apps))
	return grants
}

// AllocateInto hands the engine's scratch straight to the inner policy,
// which is what the engine would have done without the wrapper.
func (t *tracedPolicy) AllocateInto(scr *core.Scratch, now float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	start := nowNS()
	grants := core.AllocateWith(t.inner, scr, now, apps, cap)
	t.observe(start, len(apps))
	return grants
}

func (t *tracedPolicy) observe(start int64, apps int) {
	end := nowNS()
	n := t.calls.Add(1)
	t.ns.Add(end - start)
	t.apps.Add(int64(apps))
	if n%64 == 0 && len(t.exemplars) < maxExemplars {
		t.exemplars = append(t.exemplars, span{Name: spanNames[spPolicy], Start: start, End: end, Parent: t.parent, Op: t.op})
	}
}

// policyCounts is a reading of the wrapper's counters.
type policyCounts struct{ calls, ns, apps int64 }

func (t *tracedPolicy) counts() policyCounts {
	return policyCounts{t.calls.Load(), t.ns.Load(), t.apps.Load()}
}

func (c policyCounts) sub(o policyCounts) policyCounts {
	return policyCounts{c.calls - o.calls, c.ns - o.ns, c.apps - o.apps}
}

// --- server: the socket path, measured from outside -------------------------

// connStats is what the timing listener gathers over all server-side
// connections. One mutex guards it: it is taken once per Read or Write
// that returns, in traced runs only.
type connStats struct {
	mu           sync.Mutex
	reads        int64
	writes       int64
	bytesIn      int64
	bytesOut     int64
	grantWrites  int64 // Write calls that carried at least one grant
	pushes       int64 // grant messages written
	writeUS      []float64
	residenceUS  []float64
	rec          *recorder // conn Read/Write spans, capped
	nextConn     int64
	recordWindow bool
}

// reset opens the traced window: counts restart, spans start being kept.
func (s *connStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads, s.writes, s.bytesIn, s.bytesOut, s.grantWrites, s.pushes = 0, 0, 0, 0, 0, 0
	s.writeUS, s.residenceUS = s.writeUS[:0], s.residenceUS[:0]
	s.rec = newRecorder()
	s.recordWindow = true
}

// timingListener wraps the listener handed to Server.Serve, so every
// accepted connection counts and timestamps its Reads and Writes.
type timingListener struct {
	net.Listener
	stats *connStats
}

func (l timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.stats.mu.Lock()
	l.stats.nextConn++
	id := l.stats.nextConn
	l.stats.mu.Unlock()
	return &timedConn{Conn: c, stats: l.stats, id: id}, nil
}

var (
	requestMark = []byte(`"type":"request"`)
	grantMark   = []byte(`"type":"grant"`)
)

// timedConn is the server's end of one connection. The daemon reads it
// from the handler goroutine and writes it from the session's writer
// goroutine; requestAt carries the arrival of the last request line from
// one to the other.
type timedConn struct {
	net.Conn
	stats     *connStats
	id        int64
	requestAt atomic.Int64
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := nowNS()
	n, err := c.Conn.Read(p)
	end := nowNS()
	if n > 0 && bytes.Contains(p[:n], requestMark) {
		c.requestAt.Store(end)
	}
	s := c.stats
	s.mu.Lock()
	s.reads++
	s.bytesIn += int64(n)
	if s.recordWindow {
		s.keepSpan(spConnRead, start, end, c.id)
	}
	s.mu.Unlock()
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := nowNS()
	// Residence: a request line came out of Read, and this Write carries
	// the session's next grant.
	grants := bytes.Count(p, grantMark)
	residence := int64(-1)
	if grants > 0 {
		if at := c.requestAt.Swap(0); at != 0 {
			residence = start - at
		}
	}
	n, err := c.Conn.Write(p)
	end := nowNS()
	s := c.stats
	s.mu.Lock()
	s.writes++
	s.bytesOut += int64(n)
	if grants > 0 {
		s.grantWrites++
		s.pushes += int64(grants)
	}
	if s.recordWindow {
		s.writeUS = append(s.writeUS, float64(end-start)/1e3)
		if residence >= 0 {
			s.residenceUS = append(s.residenceUS, float64(residence)/1e3)
		}
		s.keepSpan(spConnWrite, start, end, c.id)
	}
	s.mu.Unlock()
	return n, err
}

// keepSpan adds a closed span to the shared recorder; callers hold mu.
// Connection spans have no parent in this process: the request that
// caused them crossed a socket.
func (s *connStats) keepSpan(kind spanKind, start, end, conn int64) {
	r := s.rec
	if len(r.spans) < maxSpansPerRecorder {
		r.spans = append(r.spans, span{Name: spanNames[kind], Start: start, End: end, Parent: -1, Op: conn})
	}
	r.count[kind]++
	r.total[kind] += end - start
	r.self[kind] += end - start
}
