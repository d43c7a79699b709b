// Package des provides a deterministic discrete-event simulation engine.
//
// Events are ordered by (time, sequence number): two events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation built on the engine fully deterministic. Rescheduling assigns
// a fresh sequence number, so among events sharing an instant the most
// recently (re)scheduled one fires last — "schedule order" extends
// naturally to timer updates.
//
// The engine is the shared event kernel for both execution engines: the
// rank-level cluster emulator (internal/cluster) drives everything through
// it, and the application-level simulator (internal/sim) keeps its per-app
// phase deadlines in it as reschedulable timers. An event created once and
// moved with Reschedule never allocates again, which is what makes the
// steady-state fire path of both engines allocation-free (StepDue,
// Reschedule and the heap sifts carry //iosched:allocfree and are compiled
// under the escape gate).
package des

import (
	"fmt"
	"math"
	"slices"
)

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	steps  uint64
	onID   func(id int32) // runs events that carry an ID instead of a callback
}

// Handle identifies a scheduled event and allows cancellation.
type Handle struct {
	ev *event
}

type event struct {
	time  float64
	seq   uint64
	fn    func() // nil: the event hands id to the engine's ID handler
	id    int32
	index int32 // heap index, -1 when removed
}

// HandleIDs installs the handler for events that carry an ID instead of a
// callback (Arm.ID, IDTimers). It is for populations: when n timers all do
// the same thing, each to its own element, arming them by the element's
// index through one handler creates no closure per element.
func (e *Engine) HandleIDs(fn func(id int32)) { e.onID = fn }

// fire runs a popped event.
func (e *Engine) fire(ev *event) {
	if ev.fn != nil {
		ev.fn()
	} else {
		e.onID(ev.id)
	}
}

const noIDHandler = "des: event has no Fn and the engine no ID handler (call HandleIDs before arming)"

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return len(e.events) }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model.
func (e *Engine) At(t float64, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling event at NaN")
	}
	if fn == nil {
		panic("des: scheduling event with nil fn")
	}
	ev := &event{time: t, seq: e.seq, fn: fn}
	e.seq++
	e.events.push(ev)
	return Handle{ev: ev}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) Handle {
	return e.At(e.now+d, fn)
}

// Arm describes one timer for ArmAll: Fn runs at absolute time At. An arm
// with a nil Fn hands ID to the engine's ID handler instead (HandleIDs).
type Arm struct {
	At float64
	Fn func()
	ID int32
}

// ArmAll schedules every arm and returns their handles, aligned by index.
// It is equivalent to calling At for each arm in slice order — sequence
// numbers are assigned in that order, so the fire order among
// same-instant events is identical — but the events are allocated in one
// contiguous block and the heap property is restored with a single O(n)
// bottom-up pass instead of n individual sifts. It is the population-
// setup path: arming one deadline timer per application of a 100k-app
// workload this way costs three allocations, not 100k.
func (e *Engine) ArmAll(arms []Arm) []Handle {
	if len(arms) == 0 {
		return nil
	}
	for i := range arms {
		if arms[i].At < e.now {
			panic(fmt.Sprintf("des: scheduling event at %g before now %g", arms[i].At, e.now))
		}
		if math.IsNaN(arms[i].At) {
			panic("des: scheduling event at NaN")
		}
		if arms[i].Fn == nil && e.onID == nil {
			panic(noIDHandler)
		}
	}
	evs := make([]event, len(arms))
	handles := make([]Handle, len(arms))
	base := len(e.events)
	e.events = slices.Grow(e.events, len(arms))
	for i := range arms {
		ev := &evs[i]
		ev.time = arms[i].At
		ev.seq = e.seq
		e.seq++
		ev.fn = arms[i].Fn
		ev.id = arms[i].ID
		ev.index = int32(base + i)
		e.events = append(e.events, ev)
		handles[i] = Handle{ev: ev}
	}
	e.events.heapify()
	return handles
}

// IDTimers creates n timers in one block, timer i carrying ID i, and
// reserves queue room for all of them, so no Reschedule of one of them
// grows the queue. In ID order, set receives each timer's handle and
// returns where to arm it: at t when arm is true; otherwise the timer
// stays unarmed — it behaves exactly like one that already fired — until
// a Reschedule. Arming is Reschedule(h, t) for each armed timer in ID
// order — the same clamp to now, the same sequence numbers — except that
// the armed timers enter the queue with one O(n) heapify instead of a
// sift each. It is the population-setup path: one timer per application,
// whatever the release times, costs one block and one queue reservation.
func (e *Engine) IDTimers(n int, set func(id int32, h Handle) (t float64, arm bool)) {
	if e.onID == nil {
		panic(noIDHandler)
	}
	evs := make([]event, n)
	e.events = slices.Grow(e.events, n)
	for i := range evs {
		ev := &evs[i]
		ev.id, ev.index = int32(i), -1
		t, arm := set(int32(i), Handle{ev: ev})
		if !arm {
			continue
		}
		if math.IsNaN(t) {
			panic("des: rescheduling event to NaN")
		}
		if t < e.now {
			t = e.now
		}
		ev.time = t
		ev.seq = e.seq
		e.seq++
		ev.index = int32(len(e.events))
		e.events = append(e.events, ev)
	}
	e.events.heapify()
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually removed.
func (e *Engine) Cancel(h Handle) bool {
	if h.ev == nil || h.ev.index < 0 {
		return false
	}
	e.events.remove(int(h.ev.index))
	return true
}

// Pending reports whether the event is still queued.
func (e *Engine) Pending(h Handle) bool {
	return h.ev != nil && h.ev.index >= 0
}

// When returns the scheduled time of a still-queued event; ok is false for
// a zero handle or an event that already fired or was cancelled.
func (e *Engine) When(h Handle) (t float64, ok bool) {
	if h.ev == nil || h.ev.index < 0 {
		return 0, false
	}
	return h.ev.time, true
}

// Reschedule moves the event to absolute time t, re-arming it if it has
// already fired or been cancelled: the handle is an updatable timer whose
// callback survives across firings, so moving it never allocates. A target
// in the past clamps to now (rescheduling races the clock by design — a
// timer pulled earlier than the current instant means "as soon as
// possible", unlike At where a past time is a logic error). The event
// receives a fresh sequence number, so among same-instant events it fires
// in (re)schedule order. Rescheduling a zero Handle reports false.
//
//iosched:allocfree
func (e *Engine) Reschedule(h Handle, t float64) bool {
	ev := h.ev
	if ev == nil {
		return false
	}
	if math.IsNaN(t) {
		//iosched:allocfree-allow the panic value on a logic error, never on a run that continues
		panic("des: rescheduling event to NaN")
	}
	if t < e.now {
		t = e.now
	}
	ev.time = t
	ev.seq = e.seq
	e.seq++
	if ev.index >= 0 {
		e.events.fix(int(ev.index))
	} else {
		e.events.push(ev)
	}
	return true
}

// Step executes the next event, advancing the clock. It reports whether an
// event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	e.steps++
	e.fire(ev)
	return true
}

// StepDue executes the next event only if it is scheduled no later than t,
// advancing the clock to the event's time. It reports whether an event was
// executed. This is the fire path for callers that batch events inside a
// simultaneity window (time <= t) without advancing past it; it performs
// no allocation.
//
//iosched:allocfree
func (e *Engine) StepDue(t float64) bool {
	if len(e.events) == 0 || e.events[0].time > t {
		return false
	}
	ev := e.events.pop()
	if ev.time > e.now {
		e.now = ev.time
	}
	e.steps++
	e.fire(ev)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunLimit executes at most n events; it returns the number executed.
// It is a safety valve for tests that must terminate even if a model
// accidentally self-perpetuates.
func (e *Engine) RunLimit(n uint64) uint64 {
	var done uint64
	for done < n && e.Step() {
		done++
	}
	return done
}

// NextTime returns the time of the next pending event and true, or 0 and
// false if the queue is empty.
func (e *Engine) NextTime() (float64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].time, true
}

// Peek returns the time of the next pending event without executing it,
// or +Inf if the queue is empty. It is NextTime shaped for next-event-time
// minimization loops: min(engine.Peek(), other sources...) needs no ok
// branch.
func (e *Engine) Peek() float64 {
	if len(e.events) == 0 {
		return math.Inf(1)
	}
	return e.events[0].time
}
