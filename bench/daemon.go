package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// The daemon workloads share one machine and one standing population:
// B = 24 GiB/s, b = 0.0125 GiB/s per node, and 62 parked sessions of 64
// nodes that each announce one huge transfer and then stay silent. Their
// demand (62 × 0.8 = 49.6 GiB/s) is about twice B, so every round is
// congested and runs the policy; without them every round would be a
// Saturating skip and the policy would never be exercised. Only the
// drivers generate load: parked sessions are idle sockets.
const (
	daemonTotalBW  = 24.0
	daemonNodeBW   = 0.0125
	parkedSessions = 62
	parkedNodes    = 64
	driverNodes    = 4
	driverFirstID  = 1000
	grantTimeout   = 5 * time.Second
	settleTimeout  = 5 * time.Second
)

// daemonSpec is one daemon workload.
type daemonSpec struct {
	name   string
	policy func() core.Scheduler
	// drivers is the number of closed-loop driver connections: each sends
	// its next message only after the previous answer, with zero think
	// time, as an application blocks on its grant.
	drivers int
	// churn makes every operation a whole session lifecycle with a fresh
	// app ID instead of one cycle on a standing session.
	churn bool
	// warmOps is the number of untimed operations each driver runs during
	// set-up, about a tenth of a second's worth.
	warmOps int
}

// loadDrivers is min(nproc, 4): more connections than processors would
// measure the Go scheduler, not the daemon.
func loadDrivers() int { return min(runtime.NumCPU(), 4) }

func runDaemonCycle(o options) (*result, error) {
	return (&daemonSpec{name: "daemon-cycle", policy: func() core.Scheduler { return core.MaxSysEff() }, drivers: loadDrivers(), warmOps: 1000}).run(o)
}

// daemon-fanout has one driver: a second driver's request re-shares the
// first one's bandwidth, and that push could be mistaken for the answer
// to its next request.
func runDaemonFanout(o options) (*result, error) {
	return (&daemonSpec{name: "daemon-fanout", policy: func() core.Scheduler { return core.FairShare{} }, drivers: 1, warmOps: 200}).run(o)
}

func runDaemonChurn(o options) (*result, error) {
	return (&daemonSpec{name: "daemon-churn", policy: func() core.Scheduler { return core.MaxSysEff() }, drivers: loadDrivers(), churn: true, warmOps: 300}).run(o)
}

// daemon is one embedded scheduler daemon on loopback TCP with its
// standing population registered.
type daemon struct {
	srv    *server.Server
	addr   string
	served chan error
	parked []*server.Client
	// stats and policy are the traced run's wrappers; nil otherwise.
	stats  *connStats
	policy *tracedPolicy
	closed bool
}

func startDaemon(spec *daemonSpec, o options, traced bool) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	policy := spec.policy()
	if traced {
		policy, d.policy = tracePolicy(policy)
	}
	srv, err := server.New(server.Config{Policy: policy, TotalBW: daemonTotalBW, NodeBW: daemonNodeBW})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv, d.addr = srv, ln.Addr().String()
	if traced {
		d.stats = &connStats{rec: newRecorder()}
		ln = timingListener{ln, d.stats}
	}
	go func() { d.served <- srv.Serve(ln) }()

	// The standing population: work and ideal time come from the seed, so
	// MaxSysEff's order among the parked sessions does too.
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < parkedSessions; i++ {
		c, err := server.Dial(d.addr, i+1, parkedNodes)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("parking session %d: %w", i+1, err)
		}
		d.parked = append(d.parked, c)
		work := 100 + 900*rng.Float64()
		if err := c.RequestIO(1e9, work, work*(1.1+0.4*rng.Float64())); err != nil {
			d.close()
			return nil, fmt.Errorf("parking session %d: %w", i+1, err)
		}
	}
	if err := d.settle(parkedSessions); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// settle waits until the daemon has caught up with everything the
// drivers sent: exactly sessions registered, and only the parked ones
// still wanting I/O. The counters read after it are exact.
func (d *daemon) settle(sessions int) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		m := d.srv.Metrics()
		if m.Sessions == sessions && m.Candidates == parkedSessions {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not settle: %d sessions (want %d), %d candidates (want %d)",
				m.Sessions, sessions, m.Candidates, parkedSessions)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close disconnects the standing population and stops the daemon.
func (d *daemon) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, c := range d.parked {
		c.Close() //nolint:errcheck // tearing down; the server is about to go too
	}
	d.srv.Close() //nolint:errcheck // listener close error is of no use here
	<-d.served
}

// check runs the after-the-run checks; each failure is a failed op.
func (d *daemon) check(res *result) {
	m := d.srv.Metrics()
	if m.Rounds != m.Decisions+m.Skipped {
		res.fail("rounds %d != decisions %d + skipped %d", m.Rounds, m.Decisions, m.Skipped)
	}
	sum := 0.0
	for _, a := range d.srv.Snapshot().Apps {
		sum += a.BW
	}
	if sum > daemonTotalBW*(1+1e-9) {
		res.fail("granted bandwidth %g exceeds B = %g", sum, daemonTotalBW)
	}
	for i, c := range d.parked {
		if err := c.Err(); err != nil {
			res.fail("parked session %d: %v", i+1, err)
		}
	}
}

// driver is one closed-loop load connection.
type driver struct {
	d      *daemon
	churn  bool
	client *server.Client // standing session (steady workloads)
	nextID int            // next fresh app ID (churn)
	stride int
	rec    *recorder

	cycles      int64
	attempted   int
	failures    []string
	opUS        []float64 // end-to-end operation latency
	opEnd       []time.Time
	grantUS     []float64 // RequestIO call → WaitForBandwidth return
	handshakeUS []float64
	teardownUS  []float64
}

func (dr *driver) failf(format string, args ...any) {
	dr.failures = append(dr.failures, fmt.Sprintf(format, args...))
}

// grantCycle is RequestIO → WaitForBandwidth → CompleteIO on c, with the
// checks every awaited grant must pass. It returns the grant latency.
func (dr *driver) grantCycle(c *server.Client) (time.Duration, error) {
	seq := c.Seq()
	start := time.Now()
	dr.rec.begin(spRequestIO, dr.cycles)
	err := c.RequestIO(1, 0, 1/(driverNodes*daemonNodeBW))
	dr.rec.end()
	if err != nil {
		return 0, err
	}
	dr.rec.begin(spWait, dr.cycles)
	bw, err := c.WaitForBandwidth(grantTimeout)
	dr.rec.end()
	if err != nil {
		return 0, err
	}
	latency := time.Since(start)
	dr.rec.begin(spCompleteIO, dr.cycles)
	err = c.CompleteIO()
	dr.rec.end()
	if err != nil {
		return 0, err
	}
	if !(bw > 0 && bw <= driverNodes*daemonNodeBW*(1+1e-9)) {
		return 0, fmt.Errorf("grant %g outside (0, %g]", bw, driverNodes*daemonNodeBW)
	}
	// Exactly one push per cycle, the answer to this request: any other
	// advance means a grant decided for an earlier phase was taken for
	// this one.
	if got := c.Seq(); got != seq+1 {
		return 0, fmt.Errorf("grant sequence advanced %d → %d in one cycle", seq, got)
	}
	return latency, nil
}

// op runs one operation and records its latency; an error is a failed
// op that has no latency.
func (dr *driver) op() {
	dr.attempted++
	dr.cycles++
	dr.rec.begin(spCycle, dr.cycles)
	defer dr.rec.end()
	if !dr.churn {
		latency, err := dr.grantCycle(dr.client)
		if err != nil {
			dr.failf("driver cycle %d: %v", dr.cycles, err)
			return
		}
		us := float64(latency.Nanoseconds()) / 1e3
		dr.opUS = append(dr.opUS, us)
		dr.opEnd = append(dr.opEnd, time.Now())
		dr.grantUS = append(dr.grantUS, us)
		return
	}
	id := dr.nextID
	dr.nextID += dr.stride
	start := time.Now()
	dr.rec.begin(spDial, dr.cycles)
	c, err := server.Dial(dr.d.addr, id, driverNodes)
	dr.rec.end()
	if err != nil {
		dr.failf("session %d: %v", id, err)
		return
	}
	dialed := time.Now()
	latency, err := dr.grantCycle(c)
	closing := time.Now()
	dr.rec.begin(spClose, dr.cycles)
	cerr := c.Close()
	dr.rec.end()
	done := time.Now()
	if err = errors.Join(err, cerr, c.Err()); err != nil {
		dr.failf("session %d: %v", id, err)
		return
	}
	dr.opUS = append(dr.opUS, float64(done.Sub(start).Nanoseconds())/1e3)
	dr.opEnd = append(dr.opEnd, done)
	dr.grantUS = append(dr.grantUS, float64(latency.Nanoseconds())/1e3)
	dr.handshakeUS = append(dr.handshakeUS, float64(dialed.Sub(start).Nanoseconds())/1e3)
	dr.teardownUS = append(dr.teardownUS, float64(done.Sub(closing).Nanoseconds())/1e3)
}

// rig is a daemon with its drivers connected and warmed up.
type rig struct {
	spec    *daemonSpec
	d       *daemon
	drivers []*driver
}

// setUp starts a daemon, registers the standing population, connects the
// drivers and runs the warm-up operations.
func (spec *daemonSpec) setUp(o options, traced bool) (*rig, error) {
	d, err := startDaemon(spec, o, traced)
	if err != nil {
		return nil, err
	}
	b := &rig{spec: spec, d: d}
	for i := 0; i < spec.drivers; i++ {
		dr := &driver{d: d, churn: spec.churn, nextID: driverFirstID + i, stride: spec.drivers}
		if !spec.churn {
			if dr.client, err = server.Dial(d.addr, driverFirstID+i, driverNodes); err != nil {
				b.close()
				return nil, err
			}
		}
		b.drivers = append(b.drivers, dr)
	}
	warm := spec.warmOps
	if o.smoke {
		warm = 20
	}
	b.each(func(dr *driver) {
		for i := 0; i < warm; i++ {
			dr.op()
		}
	})
	for _, dr := range b.drivers {
		if len(dr.failures) > 0 {
			b.close()
			return nil, fmt.Errorf("warm-up: %s", dr.failures[0])
		}
	}
	return b, b.settle()
}

func (b *rig) settle() error {
	sessions := parkedSessions
	if !b.spec.churn {
		sessions += len(b.drivers)
	}
	return b.d.settle(sessions)
}

// each runs fn on every driver concurrently and waits for all.
func (b *rig) each(fn func(dr *driver)) {
	var wg sync.WaitGroup
	for _, dr := range b.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(dr)
		}()
	}
	wg.Wait()
}

func (b *rig) close() {
	for _, dr := range b.drivers {
		if dr.client != nil {
			dr.client.Close() //nolint:errcheck // tearing down
		}
	}
	b.d.close()
}

// windowStats is what one timed window of a daemon workload measured.
type windowStats struct {
	seconds   float64
	attempted int
	// slices cuts the window into whole seconds (one slice when it is
	// shorter than two); opUS holds every completed operation.
	slices      []slice
	opUS        []float64
	grantUS     []float64
	handshakeUS []float64
	teardownUS  []float64
	before      server.Metrics
	after       server.Metrics
	policy      policyCounts
	rec         *recorder
}

// window drives the daemon for seconds: every driver loops its operation
// back to back until the deadline. The daemon is settled before and
// after, so the counter deltas are exact.
func (b *rig) window(seconds float64, res *result) (*windowStats, error) {
	for _, dr := range b.drivers {
		dr.attempted, dr.cycles = 0, 0
		dr.opUS, dr.opEnd, dr.grantUS, dr.handshakeUS, dr.teardownUS = dr.opUS[:0], dr.opEnd[:0], dr.grantUS[:0], dr.handshakeUS[:0], dr.teardownUS[:0]
		if b.d.stats != nil {
			dr.rec = newRecorder()
		}
	}
	w := &windowStats{before: b.d.srv.Metrics()}
	var policy0 policyCounts
	if b.d.policy != nil {
		policy0 = b.d.policy.counts()
		b.d.stats.reset()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	b.each(func(dr *driver) {
		for time.Now().Before(deadline) {
			dr.op()
			if dr.client != nil && dr.client.Err() != nil {
				return // the standing session is gone
			}
		}
	})
	w.seconds = time.Since(start).Seconds()
	if err := b.settle(); err != nil {
		return nil, err
	}
	w.after = b.d.srv.Metrics()
	if b.d.policy != nil {
		w.policy = b.d.policy.counts().sub(policy0)
		w.rec = newRecorder()
	}
	// One-second slices; a window too short for two is one slice.
	sliceS, n := 1.0, int(seconds)
	if n < 2 {
		sliceS, n = w.seconds, 1
	}
	w.slices = make([]slice, n)
	for i := range w.slices {
		w.slices[i].seconds = sliceS
	}
	for _, dr := range b.drivers {
		w.attempted += dr.attempted
		w.opUS = append(w.opUS, dr.opUS...)
		for i, end := range dr.opEnd {
			// An operation that straddles the deadline ends in no slice.
			if k := int(end.Sub(start).Seconds() / sliceS); k < n {
				w.slices[k].us = append(w.slices[k].us, dr.opUS[i])
			}
		}
		w.grantUS = append(w.grantUS, dr.grantUS...)
		w.handshakeUS = append(w.handshakeUS, dr.handshakeUS...)
		w.teardownUS = append(w.teardownUS, dr.teardownUS...)
		for _, f := range dr.failures {
			res.fail("%s", f)
		}
		dr.failures = nil
		if dr.client != nil {
			if err := dr.client.Err(); err != nil {
				res.fail("driver session: %v", err)
			}
		}
		if w.rec != nil {
			w.rec.merge(dr.rec)
		}
	}
	res.Ops += w.attempted
	if len(w.opUS) == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	return w, nil
}

func (spec *daemonSpec) run(o options) (*result, error) {
	// The 99th percentile of a window is set by whoever else uses the
	// machine (it spread 20-40% between runs of the same code), so the
	// end-to-end tail is the 95th; the 99th is the traced run's
	// client.op_us_p99.
	res := newResult(spec.name, o, 95)
	setups := 5
	if o.smoke {
		setups = 1
	}
	// Set-up, repeated so setup_s is a median; the last one is measured.
	var b *rig
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = spec.setUp(o, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { b.close() }()
	res.set("setup_s", median(setupS), len(setupS))

	seconds := o.seconds
	if o.trace {
		seconds /= 3 // the untraced reference of a traced run
	}
	w, err := b.measure(seconds, res)
	if err != nil || !o.trace {
		return res, err
	}

	b.close()
	if b, err = spec.setUp(o, true); err != nil {
		return nil, err
	}
	tw, err := b.measure(o.seconds*2/3, res)
	if err != nil {
		return nil, err
	}
	return res, spec.reportLayers(o, res, b, w, tw)
}

// measure runs one timed window with the runtime probe around it, then
// the after-the-run checks, and reports the window.
func (b *rig) measure(seconds float64, res *result) (*windowStats, error) {
	probe := startRuntimeProbe(b.d.stats != nil)
	w, err := b.window(seconds, res)
	if err != nil {
		return nil, err
	}
	probe.stop(res, len(w.opUS))
	b.d.check(res)
	w.report(res)
	return w, nil
}

// report records the end-to-end metrics of a window and the server
// counters that come free from Server.Metrics.
func (w *windowStats) report(res *result) {
	ops := len(w.opUS)
	res.reportSlices(w.slices)
	n := float64(ops)
	rounds := float64(w.after.Rounds - w.before.Rounds)
	res.set("server.rounds_per_op", rounds/n, ops)
	res.set("server.decisions_per_op", float64(w.after.Decisions-w.before.Decisions)/n, ops)
	res.set("server.skip_ratio", float64(w.after.Skipped-w.before.Skipped)/max(rounds, 1), ops)
	res.set("server.pushes_per_op", float64(w.after.GrantPushes-w.before.GrantPushes)/n, ops)
}

// reportLayers derives the per-layer metrics of the traced window tw;
// plain is the untraced reference window of the same run.
func (spec *daemonSpec) reportLayers(o options, res *result, b *rig, plain, tw *windowStats) error {
	ops := len(tw.opUS)
	n := float64(ops)
	windowNS := tw.seconds * 1e9

	pc := tw.policy
	res.set("core.allocate_calls", float64(pc.calls)/n, ops)
	if pc.calls > 0 {
		res.set("core.allocate_ns_per_call", float64(pc.ns)/float64(pc.calls), int(pc.calls))
		res.set("core.candidates_per_call", float64(pc.apps)/float64(pc.calls), int(pc.calls))
	}
	res.set("core.allocate_share", float64(pc.ns)/windowNS, 1)
	res.set("core.probe_ns.n16", probeCore(o, 16), 1)
	res.set("core.probe_ns.n1024", probeCore(o, 1024), 1)

	s := b.d.stats
	s.mu.Lock()
	s.recordWindow = false
	residence, writes := s.residenceUS, s.writeUS
	res.set("server.residence_us_p50", percentile(residence, 50), len(residence))
	res.set("server.residence_us_p99", percentile(residence, 99), len(residence))
	res.set("server.write_us_p50", percentile(writes, 50), len(writes))
	res.set("server.writes_per_op", float64(s.writes)/n, ops)
	res.set("server.pushes_per_write", float64(s.pushes)/float64(max(s.grantWrites, 1)), int(s.grantWrites))
	res.set("server.bytes_in_per_op", float64(s.bytesIn)/n, ops)
	res.set("server.bytes_out_per_op", float64(s.bytesOut)/n, ops)
	connSpans := s.rec
	s.mu.Unlock()
	if len(tw.handshakeUS) > 0 {
		res.set("server.handshake_us_p50", median(tw.handshakeUS), len(tw.handshakeUS))
		res.set("server.teardown_us_p50", median(tw.teardownUS), len(tw.teardownUS))
	}
	if err := probeCodec(o, res); err != nil {
		return err
	}
	res.set("client.wire_us_p50", median(tw.grantUS)-percentile(residence, 50), len(tw.grantUS))
	res.set("client.op_us_p99", percentile(tw.opUS, 99), ops)
	rtt, err := probeLoopback(o)
	if err != nil {
		return err
	}
	res.set("net.loopback_rtt_us_p50", rtt, 1)

	plainRate := float64(len(plain.opUS)) / plain.seconds
	res.set("trace.overhead_pct", 100*(1-(n/tw.seconds)/plainRate), 1)
	rec := tw.rec
	res.set("trace.unattributed_share", float64(rec.self[spCycle])/float64(max(rec.total[spCycle], 1)), int(rec.count[spCycle]))

	// The daemon must be down before its policy wrapper's exemplars are
	// read: they are appended under the daemon's round lock.
	b.close()
	rec.merge(connSpans)
	rec.spans = append(rec.spans, b.d.policy.exemplars...)
	rec.count[spPolicy], rec.total[spPolicy], rec.self[spPolicy] = pc.calls, pc.ns, pc.ns
	res.TraceFile, err = rec.write(spec.name, o.seed)
	return err
}
