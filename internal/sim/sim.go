// Package sim is the application-level event-driven simulator used for the
// paper's Section 4 evaluation. It executes a mix of applications on a
// platform under a pluggable global I/O scheduler, with piecewise-constant
// bandwidth assignments between events (an event is the start or end of an
// I/O transfer, a compute-phase completion, an application release, or a
// burst-buffer fill/empty crossing).
//
// The hot loop runs on the shared deterministic event kernel
// (internal/des): per-application phase deadlines live in the kernel's
// indexed queue as reschedulable timers, while the I/O side of the model —
// the transferring set, the candidate set, the unfinished count — is
// tracked incrementally, so one event costs O(transferring + log apps)
// instead of the former O(apps) rescans. Decision points go through the
// decision kernel shared with the daemon (internal/engine), which elides
// scheduler invocations it can prove redundant (see Result.Skipped).
// The refactor preserves the original loop's floating-point operations in
// their original order; TestCrossEngineEquivalence pins every output to
// the pre-refactor engine bit for bit.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Config describes one simulation run.
type Config struct {
	Platform  *platform.Platform
	Scheduler core.Scheduler
	Apps      []*platform.App

	// UseBB routes all writes through the platform's burst buffer: while
	// the buffer has free space applications ingest at up to its
	// IngestBW and resume computing as soon as their volume is staged;
	// the buffer drains to the file system at TotalBW; once full, ingest
	// is limited to the drain rate. Requires Platform.BurstBuffer.
	UseBB bool

	// RequestLatency is the delay between an application finishing its
	// compute phase and its request becoming visible to the global
	// scheduler (the cost of calling the scheduler, Section 5.1). Zero
	// models an oracle scheduler.
	RequestLatency float64

	// MaxTime aborts the run if the clock passes this horizon.
	// Zero selects a generous default derived from the workload.
	MaxTime float64

	// CheckGrants validates every scheduler decision against the
	// capacity constraints (used in tests; small overhead).
	CheckGrants bool

	// Trace, when non-nil, records every application's phase and
	// bandwidth over time for visualization (report.RenderGantt).
	Trace *Trace

	// DecisionTrace, Telemetry and Health watch the decision points: the
	// decision kernel's engine.Observers, handed over once at
	// construction (see docs/tracing.md and docs/observability.md). The
	// trace sink receives one dectrace.Record per decision point, the
	// probe samples each point's congestion signals under its MinInterval
	// gate, and the monitor sees every point, never sampled. The probe's
	// snapshot lands in Result.Telemetry, the monitor's verdict in
	// Result.Health. Nil leaves the hot path untouched.
	DecisionTrace dectrace.Sink
	Telemetry     *telemetry.Probe
	Health        *health.Monitor
}

// Result is the outcome of a run.
type Result struct {
	Apps    []metrics.AppPerf
	Summary metrics.Summary
	// Events is the number of event instants processed.
	Events int
	// Decisions is the number of scheduler invocations.
	Decisions int
	// Skipped is the number of decision points resolved without invoking
	// the scheduler: the engine proved the previous decision still stands
	// (Memoizable policy, unchanged inputs) or applied the known
	// uncongested outcome (Saturating policy, demand within capacity).
	// Decisions + Skipped equals the per-event decision count of the
	// pre-refactor engine, which invoked the scheduler at every event
	// with candidates.
	Skipped int
	// SkippedMemo, SkippedSaturating and SkippedSingleFullGrant break
	// Skipped down by the capability that proved each skip sound
	// (core.SkipReason); the three always sum to Skipped.
	SkippedMemo            int
	SkippedSaturating      int
	SkippedSingleFullGrant int
	// BBPeakLevel is the maximum burst-buffer fill level reached (GiB).
	BBPeakLevel float64
	// BBFullTime is the total time the burst buffer spent full (seconds).
	BBFullTime float64
	// Telemetry is the captured time-series snapshot when Config.Telemetry
	// was attached, nil otherwise.
	Telemetry *telemetry.Telemetry
	// Health is the final verdict snapshot when Config.Health was
	// attached, nil otherwise; Anomalies is its lifetime count of
	// detector firing transitions (0 without a monitor).
	Health    *health.Snapshot
	Anomalies int
}

type phase int

const (
	notReleased phase = iota
	computing
	requesting // compute done, scheduler request in flight
	doingIO    // pending or transferring, per grant
	finished
)

type appState struct {
	app  *platform.App
	view core.AppView

	index int // position in simulation.apps; orders same-instant firing

	phase   phase
	idx     int     // current instance
	until   float64 // phase deadline: release / compute end / request ready
	bw      float64 // current aggregate grant (GiB/s)
	ioStart float64 // when the current instance first wanted I/O

	// timer is the app's reschedulable deadline event in the kernel;
	// pending exactly while phase is notReleased, computing (with work
	// left), or requesting.
	timer des.Handle

	// activePos is the app's slot in the unordered transferring set
	// (simulation.active), -1 when absent. Storing the position makes
	// removal a swap with the last element — O(1) instead of the former
	// O(population) memmove through a sorted slice, which dominated runs
	// at 100k applications.
	activePos int32

	ioTime float64
	finish float64
}

const (
	timeEps = 1e-9 // events closer than this are simultaneous
	volEps  = 1e-9 // remaining volume below this counts as done
)

// validateConfig checks the parts of a Config shared by every entry point
// (fresh runs and snapshot resumes alike).
func validateConfig(cfg Config) error {
	if err := platform.ValidateApps(cfg.Platform, cfg.Apps); err != nil {
		return err
	}
	if cfg.Scheduler == nil {
		return errors.New("sim: nil scheduler")
	}
	if cfg.UseBB && cfg.Platform.BurstBuffer == nil {
		return fmt.Errorf("sim: UseBB set but platform %q has no burst buffer", cfg.Platform.Name)
	}
	return nil
}

// Run executes the simulation and returns per-application performance and
// the run summary.
func Run(cfg Config) (*Result, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	s := newSimulation(cfg)
	return s.run()
}

type simulation struct {
	cfg Config
	p   *platform.Platform
	// apps is a flat arena, one slot per application in config order
	// (dense app index). It is sized once and never reallocated; every
	// other structure — kernel timers, the membership sets, the due list —
	// refers to an application by that index: it is the app's slot in the
	// kernel's candidate set too.
	apps []appState

	eng des.Engine // deadline timers (release / compute end / request ready)

	now    float64
	events int

	// k is the decision kernel: policy capabilities, the candidate set
	// (the apps in doingIO entered with more than volEps remaining) and its
	// version, the decision memo and the decision/skip counters
	// (internal/engine).
	k engine.Kernel
	// set receives the kernel's verdicts: the simulation itself (Apply);
	// a test may wrap it.
	set engine.Set

	// firedKinds is the bitmask of phase transitions the current event
	// instant fired, reset by fireDue; it names the decision trigger in
	// decision-trace records (kindString).
	firedKinds uint8

	// unfinished counts apps not yet in the finished phase.
	unfinished int

	// active holds the app indices of the transferring set (doingIO with
	// bw > 0), unordered: volume integration and completion-time
	// minimization walk it instead of all apps, and both are
	// order-independent (per-element updates and a strict-< minimum).
	// The one consumer that needs index order — the burst-buffer inflow
	// sum, whose accumulation order is observable in the goldens — reads
	// the lazily sorted view below. activeVersion bumps on membership
	// change and invalidates it.
	active              []int32
	activeVersion       uint64
	activeSorted        []int32
	activeSortedVersion uint64

	// zeroPending holds apps due at the next event instant without a
	// timer: those that entered doingIO at or below volEps, invisible to
	// the allocator, which complete there exactly as the original
	// per-event volume sweep did; and, before the first instant, those
	// released at t = 0.
	zeroPending []int32

	// due is the per-instant firing list (app indices), reused across
	// events; the kernel's ID handler appends each fired timer's app.
	due []int32

	// buffer is non-nil when the run stages writes through a burst
	// buffer.
	buffer *bb.Model

	maxTime float64
}

// newArena allocates a simulation for cfg with everything that scales
// with the population sized once: the application arena, the three index
// lists, each of which holds an application at most once, and the
// candidate set's per-slot storage. A run performs a number of
// allocations independent of len(cfg.Apps).
func newArena(cfg Config) *simulation {
	n := len(cfg.Apps)
	s := &simulation{cfg: cfg, p: cfg.Platform,
		k: engine.New(cfg.Scheduler, engine.Observers{
			Trace: cfg.DecisionTrace, Telemetry: cfg.Telemetry, Health: cfg.Health,
		}, cfg.CheckGrants)}
	s.set = s
	s.apps = make([]appState, n)
	s.k.Cands.Reserve(n)
	idx := make([]int32, 3*n)
	s.due, s.active, s.zeroPending = idx[:0:n], idx[n:n:2*n], idx[2*n:2*n:3*n]
	s.eng.HandleIDs(s.timerFired)
	return s
}

// newSimulation builds each application's state as it takes the
// application's deadline timer from one block: one pass over the arena.
// Releases at t = 0 go straight onto the first instant's firing list;
// only later ones enter the kernel's queue. fireDue orders each
// instant's batch by app index, so whether a release comes off the list
// or out of the queue, and in what sequence, is never observable. Nor is
// the kernel's clock: a release at 0 fired from the queue would leave it
// at 0. A release in (0, timeEps] still fires from the queue at the first
// instant and moves the clock to it, so a deadline set during that
// instant below it clamps to it (Reschedule).
func newSimulation(cfg Config) *simulation {
	s := newArena(cfg)
	s.eng.IDTimers(len(s.apps), func(i int32, h des.Handle) (float64, bool) {
		a := cfg.Apps[i]
		s.apps[i] = appState{
			app:       a,
			index:     int(i),
			phase:     notReleased,
			until:     a.Release,
			timer:     h,
			activePos: -1,
			view: core.AppView{
				ID:        a.ID,
				Nodes:     a.Nodes,
				Release:   a.Release,
				Phase:     core.Computing,
				LastIOEnd: a.Release,
			},
		}
		if a.Release == 0 {
			s.zeroPending = append(s.zeroPending, i)
			return 0, false
		}
		return a.Release, true
	})
	s.unfinished = len(s.apps)
	s.finishSetup()
	return s
}

// timerFired is the kernel's ID handler: the app whose deadline timer
// fired joins the current instant's firing list.
func (s *simulation) timerFired(i int32) { s.due = append(s.due, i) }

// DefaultMaxTime returns the time horizon a run of cfg aborts at when
// Config.MaxTime is zero: even full serialization of all I/O cannot
// exceed the summed dedicated times plus request latencies, scaled
// generously. Exported so layers that bound their own loops by the
// simulator's horizon (the twin's advised run) use the same formula.
func DefaultMaxTime(cfg Config) float64 {
	if cfg.MaxTime != 0 {
		return cfg.MaxTime
	}
	var horizon, maxRelease float64
	for _, a := range cfg.Apps {
		horizon += a.DedicatedTime(cfg.Platform)
		if a.Release > maxRelease {
			maxRelease = a.Release
		}
	}
	return maxRelease + float64(20*horizon) + 1e4
}

// finishSetup resolves the config-derived fields shared by the fresh and
// the snapshot-restore constructors: the time horizon and the burst-buffer
// model.
func (s *simulation) finishSetup() {
	cfg := s.cfg
	s.maxTime = DefaultMaxTime(cfg)
	if cfg.UseBB {
		buf := cfg.Platform.BurstBuffer
		s.buffer = bb.New(buf.Capacity, buf.IngestBW, cfg.Platform.TotalBW)
	}
}

func (s *simulation) run() (*Result, error) {
	s.fireDue() // releases due at t = 0
	s.decide()
	if _, err := s.loop(math.Inf(1)); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// loop processes events until the workload finishes or the next event
// would fire strictly after stopAt; it reports whether the workload
// finished. Stopping leaves the simulation exactly at the last processed
// event instant — the state a Snapshot captures — so a resumed loop
// replays the remaining events with bit-identical floating point: no
// partial advanceTo integration step is ever split across the boundary.
func (s *simulation) loop(stopAt float64) (bool, error) {
	maxEvents := s.eventBudget()
	for s.unfinished > 0 {
		next := s.nextEventTime()
		if next > stopAt {
			// Includes a stalled system (next = +Inf) when stopAt is
			// finite: the caller asked for the state at stopAt and gets
			// the stall as it is; a full run (stopAt = +Inf) falls
			// through to the deadlock diagnosis below instead.
			return false, nil
		}
		if math.IsInf(next, 1) {
			return false, fmt.Errorf("sim: deadlock at t=%g: no future event but %d apps unfinished (%s)",
				s.now, s.unfinished, s.census())
		}
		if next > s.maxTime {
			return false, fmt.Errorf("sim: exceeded time horizon %g (next event %g; %s)",
				s.maxTime, next, s.census())
		}
		s.advanceTo(next)
		s.fireDue()
		s.decide()
		s.events++
		if s.events > maxEvents {
			return false, fmt.Errorf("sim: exceeded event budget %d at t=%g (%d decisions, %d skipped; %s)",
				maxEvents, s.now, s.k.Decisions, s.k.Skipped, s.census())
		}
	}
	return true, nil
}

func (s *simulation) eventBudget() int {
	n := 0
	for i := range s.apps {
		n += len(s.apps[i].app.Instances)
	}
	// Each instance causes a bounded number of events directly, but every
	// event can preempt every other application, so the budget is
	// quadratic in the instance count. The +BB crossings add a constant
	// factor.
	return 100*n*len(s.apps) + 1000
}

// census summarizes the per-phase application counts for diagnostics: a
// campaign cell that deadlocks or exhausts its event budget reports what
// the population was doing, which is usually enough to tell a stalled
// allocator (everything pending) from a runaway preemption loop
// (everything transferring) straight from the logs.
func (s *simulation) census() string {
	var rel, comp, req, pend, xfer, fin int
	for i := range s.apps {
		st := &s.apps[i]
		switch st.phase {
		case notReleased:
			rel++
		case computing:
			comp++
		case requesting:
			req++
		case doingIO:
			if st.bw > 0 {
				xfer++
			} else {
				pend++
			}
		case finished:
			fin++
		}
	}
	return fmt.Sprintf("census: %d not-released, %d computing, %d requesting, %d pending, %d transferring, %d finished",
		rel, comp, req, pend, xfer, fin)
}

// --- incremental set maintenance ------------------------------------------
//
// The transferring set is an unordered index slice with O(1) add (append)
// and O(1) remove (swap with the last element); each app stores its slot
// so no search is needed. Its one order-sensitive consumer, the
// burst-buffer inflow sum, reads a lazily sorted copy instead, so skip
// rounds never pay a sort. The candidate set is the kernel's
// (engine.Candidates), keyed by the same app index.

func (s *simulation) activeAdd(st *appState) {
	if st.activePos >= 0 {
		return
	}
	st.activePos = int32(len(s.active))
	s.active = append(s.active, int32(st.index))
	s.activeVersion++
}

func (s *simulation) activeRemove(st *appState) {
	if st.activePos < 0 {
		return
	}
	i, n := st.activePos, len(s.active)-1
	moved := s.active[n]
	s.active[i] = moved
	s.apps[moved].activePos = i
	s.active = s.active[:n]
	st.activePos = -1
	s.activeVersion++
}

// sortedActive returns the transferring set ascending by app index,
// rebuilt only when membership changed. It exists for the burst-buffer
// inflow sum, whose floating-point accumulation order is observable.
func (s *simulation) sortedActive() []int32 {
	if s.activeSortedVersion != s.activeVersion || s.activeSorted == nil {
		s.activeSorted = append(s.activeSorted[:0], s.active...)
		slices.Sort(s.activeSorted)
		s.activeSortedVersion = s.activeVersion
	}
	return s.activeSorted
}

// --- phase transitions ----------------------------------------------------

// beginCompute enters the compute phase of the current instance, skipping
// zero-work phases.
func (s *simulation) beginCompute(st *appState) {
	inst := st.app.Instances[st.idx]
	st.phase = computing
	st.view.Phase = core.Computing
	st.until = s.now + inst.Work
	st.bw = 0
	if inst.Work == 0 {
		s.completeCompute(st)
		return
	}
	s.eng.Reschedule(st.timer, st.until)
}

// completeCompute credits the instance's work and moves to the I/O request.
func (s *simulation) completeCompute(st *appState) {
	inst := st.app.Instances[st.idx]
	st.view.CreditedWork += inst.Work
	st.view.CreditedIdeal += inst.Work + st.app.IOTime(s.p, st.idx)
	if inst.Volume <= 0 {
		// No I/O in this instance; move on immediately.
		s.completeInstance(st)
		return
	}
	st.ioStart = s.now
	if s.cfg.RequestLatency > 0 {
		st.phase = requesting
		st.until = s.now + s.cfg.RequestLatency
		s.eng.Reschedule(st.timer, st.until)
		return
	}
	s.beginIO(st)
}

func (s *simulation) beginIO(st *appState) {
	st.phase = doingIO
	st.view.Phase = core.Pending
	st.view.RemVolume = st.app.Instances[st.idx].Volume
	st.view.Started = false
	st.view.PendingSince = s.now
	st.until = math.Inf(1)
	if st.view.RemVolume > volEps {
		s.k.Add(int32(st.index), &st.view)
	} else {
		// Below the allocator's threshold: never a candidate; the
		// original loop's per-event volume sweep completed it at the
		// next instant.
		s.zeroPending = append(s.zeroPending, int32(st.index))
	}
}

// completeIO finishes the current transfer.
func (s *simulation) completeIO(st *appState) {
	st.view.RemVolume = 0
	st.view.Started = false
	st.view.LastIOEnd = s.now
	st.ioTime += s.now - st.ioStart
	st.bw = 0
	s.activeRemove(st)
	s.k.Remove(int32(st.index))
	s.completeInstance(st)
}

// completeInstance advances to the next instance or finishes the app.
func (s *simulation) completeInstance(st *appState) {
	st.idx++
	if st.idx >= len(st.app.Instances) {
		st.phase = finished
		st.view.Phase = core.Finished
		st.finish = s.now
		st.until = math.Inf(1)
		s.unfinished--
		return
	}
	s.beginCompute(st)
}

// --- event loop -----------------------------------------------------------

// nextEventTime returns the earliest future event: a phase deadline (the
// kernel's queue head), an I/O completion at current rates over the
// transferring set, a burst-buffer fill crossing, or a scheduler-requested
// wake-up.
func (s *simulation) nextEventTime() float64 {
	next := s.eng.Peek()
	// Set order is irrelevant here: a strict-< minimum over the
	// transferring set yields the same value in any order.
	for _, i := range s.active {
		st := &s.apps[i]
		t := s.now + st.view.RemVolume/st.bw
		if t < next {
			next = t
		}
	}
	if t, ok := s.bbFillTime(); ok && t < next {
		next = t
	}
	if t, ok := s.k.NextWake(s.now); ok && t > s.now && t < next {
		next = t
	}
	if next < s.now {
		next = s.now
	}
	return next
}

// bbFillTime returns the time the burst buffer becomes full at current
// rates, if it is filling.
func (s *simulation) bbFillTime() (float64, bool) {
	if s.buffer == nil {
		return 0, false
	}
	dt, ok := s.buffer.TimeToFull(s.inflow())
	return s.now + dt, ok
}

// inflow returns the aggregate granted write bandwidth. Summing the
// transferring set in index order reproduces the original all-apps sum
// bit for bit: pending apps contributed exact zeros, and floating-point
// addition is order-sensitive, so this is the one active-set walk that
// must read the sorted view.
func (s *simulation) inflow() float64 {
	total := 0.0
	for _, i := range s.sortedActive() {
		total += s.apps[i].bw
	}
	return total
}

// advanceTo integrates state from now to t at the current constant rates.
func (s *simulation) advanceTo(t float64) {
	dt := t - s.now
	if dt < 0 {
		panic(fmt.Sprintf("sim: time going backwards: %g -> %g", s.now, t))
	}
	if tr := s.cfg.Trace; tr != nil && dt > 0 {
		for i := range s.apps {
			st := &s.apps[i]
			if st.phase == notReleased || st.phase == finished {
				continue
			}
			phase := core.Computing
			if st.phase == doingIO {
				if st.bw > 0 {
					phase = core.Transferring
				} else {
					phase = core.Pending
				}
			}
			tr.record(st.app.ID, s.now, t, phase, st.bw)
		}
	}
	// Per-element decrements: safe over the unordered set.
	for _, i := range s.active {
		st := &s.apps[i]
		st.view.RemVolume -= float64(st.bw * dt)
		if st.view.RemVolume < 0 {
			st.view.RemVolume = 0
		}
	}
	if s.buffer != nil {
		s.buffer.Advance(dt, s.inflow())
	}
	s.now = t
}

// fireDue applies all state transitions due at the current instant: apps
// whose sub-epsilon volumes were deferred from the previous instant,
// deadline timers inside the simultaneity window, and transfers drained by
// advanceTo. The batch is ordered by application index before firing —
// the order in which the original loop's all-apps sweep visited them.
func (s *simulation) fireDue() {
	s.firedKinds = 0
	s.due = append(s.due[:0], s.zeroPending...)
	s.zeroPending = s.zeroPending[:0]
	for s.eng.StepDue(s.now + timeEps) {
		// each fired timer appends its app to s.due
	}
	// Scan order over the unordered set is irrelevant: the batch is
	// sorted by index below, and indices are unique, so the firing order
	// is fully determined regardless of how the batch was gathered.
	for _, i := range s.active {
		st := &s.apps[i]
		if st.view.RemVolume <= volEps {
			s.due = append(s.due, i)
		}
	}
	due := s.due
	slices.Sort(due)
	for _, i := range due {
		st := &s.apps[i]
		switch st.phase {
		case notReleased:
			if st.until <= s.now+timeEps {
				s.firedKinds |= kindRelease
				s.beginCompute(st)
				// beginCompute may complete zero-work phases
				// recursively; nothing else to do here.
			}
		case computing:
			if st.until <= s.now+timeEps {
				s.firedKinds |= kindComputeEnd
				s.completeCompute(st)
			}
		case requesting:
			if st.until <= s.now+timeEps {
				s.firedKinds |= kindRequestReady
				s.beginIO(st)
			}
		case doingIO:
			if st.view.RemVolume <= volEps {
				s.firedKinds |= kindIOComplete
				s.completeIO(st)
			}
		}
	}
	s.due = due[:0]
}

// capacity returns what the scheduler may allocate right now.
func (s *simulation) capacity() core.Capacity {
	c := core.Capacity{TotalBW: s.p.TotalBW, NodeBW: s.p.NodeBW}
	if s.buffer != nil {
		c.TotalBW = s.buffer.IngestCapacity()
	}
	return c
}

// decide resolves the decision point at the current instant through the
// kernel, then captures it with the capacity and burst-buffer level the
// verdict left: the two always go together, so no entry point skips the
// capture.
func (s *simulation) decide() {
	s.k.Decide(s.set, s.now, s.capacity(), kindStrings[s.firedKinds])
	lvl := 0.0
	if s.buffer != nil {
		lvl = s.buffer.Level()
	}
	s.k.Observe(s, s.now, s.capacity(), lvl)
}

// Held is the bandwidth an application holds (engine.Holdings; the slot
// is the app index).
func (s *simulation) Held(slot int32) float64 { return s.apps[slot].bw }

// Apply is the simulation's side of a verdict (engine.Set; the slot is
// the app index): it installs one application's new bandwidth and keeps
// the scheduler-visible phase (the kernel's transition) and the
// transferring set in step.
func (s *simulation) Apply(slot int32, bw, _ float64) {
	st := &s.apps[slot]
	st.bw = bw
	s.k.Transition(&st.view, bw, s.now)
	if bw > 0 {
		s.activeAdd(st)
	} else {
		s.activeRemove(st)
	}
}

// Bits of simulation.firedKinds: which phase transitions the current
// event instant fired (set by fireDue's dispatch loop).
const (
	kindRelease uint8 = 1 << iota
	kindComputeEnd
	kindRequestReady
	kindIOComplete
)

var kindNames = [...]string{"release", "compute-end", "request-ready", "io-complete"}

// kindStrings names every fired-transition bitmask for trace records:
// pipe-joined in firing-phase order, or "timer" when the instant fired no
// phase transition (a burst-buffer crossing or a scheduler wake).
var kindStrings = func() (t [1 << len(kindNames)]string) {
	t[0] = "timer"
	for mask := 1; mask < len(t); mask++ {
		var fired []string
		for i, name := range kindNames {
			if mask&(1<<i) != 0 {
				fired = append(fired, name)
			}
		}
		t[mask] = strings.Join(fired, "|")
	}
	return t
}()

func (s *simulation) collect() *Result {
	c := s.k.Counters
	res := &Result{
		Events:                 s.events,
		Decisions:              c.Decisions,
		Skipped:                c.Skipped,
		SkippedMemo:            c.SkippedMemo,
		SkippedSaturating:      c.SkippedSaturating,
		SkippedSingleFullGrant: c.SkippedSingleFullGrant,
	}
	if s.buffer != nil {
		res.BBPeakLevel = s.buffer.Peak()
		res.BBFullTime = s.buffer.FullTime()
	}
	res.Apps = make([]metrics.AppPerf, len(s.apps))
	for i := range s.apps {
		st := &s.apps[i]
		res.Apps[i] = metrics.AppPerf{
			ID:        st.app.ID,
			Name:      st.app.Name,
			Nodes:     st.app.Nodes,
			Release:   st.app.Release,
			Finish:    st.finish,
			Work:      st.app.TotalWork(),
			IdealTime: st.app.DedicatedTime(s.p),
			IOTime:    st.ioTime,
			Volume:    st.app.TotalVolume(),
		}
	}
	res.Summary = metrics.Summarize(res.Apps, s.p.Nodes)
	if s.cfg.Telemetry != nil {
		res.Telemetry = s.cfg.Telemetry.Snapshot()
	}
	if s.cfg.Health != nil {
		res.Health = s.cfg.Health.Snapshot()
		res.Anomalies = int(res.Health.Anomalies)
	}
	return res
}
