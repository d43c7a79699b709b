package des

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refTimer is one timer in the reference model: a plain list ordered by
// (time, stamp) at drain time. stamp mirrors the engine's sequence-number
// assignment — both sides bump their counter on exactly the same
// Arm/Reschedule calls, so relative order transfers.
type refTimer struct {
	time  float64
	stamp uint64
	armed bool
}

// TestHeapMatchesReference drives random Arm/Reschedule/Cancel churn with
// interleaved partial drains through the engine and through a reference
// sorted list, and requires identical fire sequences. The heap layout
// (arity, sift order) must be invisible: (time, seq) is a strict total
// order, so any correct queue produces exactly this sequence. The
// population is mixed — even timers carry a callback, odd ones an ID for
// the engine's handler — and how an event is dispatched must be as
// invisible to the order as the layout.
func TestHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 1500
		var e Engine
		var stamp uint64
		ref := make([]refTimer, n)
		handles := make([]Handle, n)
		var got []int
		now := 0.0

		fire := func(i int) func() { return func() { got = append(got, i) } }
		e.HandleIDs(func(id int32) { got = append(got, int(id)) })
		// The odd timers come from one unarmed block, which takes no
		// sequence number: each gets its one, like At, from Reschedule.
		e.IDTimers(n, func(id int32, h Handle) (float64, bool) {
			handles[id] = h
			return 0, false
		})
		for i := 0; i < n; i++ {
			tm := now + rng.Float64()*1000
			if i%2 == 0 {
				handles[i] = e.At(tm, fire(i))
			} else {
				e.Reschedule(handles[i], tm)
			}
			ref[i] = refTimer{time: tm, stamp: stamp, armed: true}
			stamp++
		}

		// expectedThrough fires every armed reference timer with
		// time <= w, in (time, stamp) order.
		expectedThrough := func(w float64) []int {
			var due []int
			for i := range ref {
				if ref[i].armed && ref[i].time <= w {
					due = append(due, i)
				}
			}
			sort.Slice(due, func(a, b int) bool {
				ta, tb := ref[due[a]], ref[due[b]]
				if ta.time != tb.time {
					return ta.time < tb.time
				}
				return ta.stamp < tb.stamp
			})
			for _, i := range due {
				ref[i].armed = false
			}
			return due
		}
		checkDrain := func(w float64) {
			t.Helper()
			got = got[:0]
			e.RunUntil(w)
			want := expectedThrough(w)
			if len(got) != len(want) {
				t.Fatalf("seed %d: drain to %g fired %d events, want %d", seed, w, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d: drain to %g fired %v, want %v", seed, w, got, want)
				}
			}
			now = w
		}

		for round := 0; round < 30; round++ {
			for op := 0; op < 200; op++ {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0: // reschedule (re-arms fired/cancelled timers)
					// Occasionally target the past to exercise clamp-to-now.
					tm := now + rng.Float64()*500 - 50
					e.Reschedule(handles[i], tm)
					if tm < now {
						tm = now
					}
					ref[i] = refTimer{time: tm, stamp: stamp, armed: true}
					stamp++
				case 1: // cancel
					removed := e.Cancel(handles[i])
					if removed != ref[i].armed {
						t.Fatalf("seed %d: Cancel(%d) = %v, reference armed = %v", seed, i, removed, ref[i].armed)
					}
					ref[i].armed = false
				case 2: // pending/when must agree with the reference
					if p := e.Pending(handles[i]); p != ref[i].armed {
						t.Fatalf("seed %d: Pending(%d) = %v, reference %v", seed, i, p, ref[i].armed)
					}
					if w, ok := e.When(handles[i]); ok != ref[i].armed || (ok && w != ref[i].time) {
						t.Fatalf("seed %d: When(%d) = %g,%v, reference %g,%v", seed, i, w, ok, ref[i].time, ref[i].armed)
					}
				}
			}
			checkDrain(now + rng.Float64()*300)
		}

		// Full drain: everything still armed fires in reference order.
		got = got[:0]
		e.Run()
		want := expectedThrough(1e18)
		if len(got) != len(want) {
			t.Fatalf("seed %d: final drain fired %d, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: final drain order diverges at %d", seed, k)
			}
		}
		if e.Len() != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, e.Len())
		}
	}
}

// TestSameInstantOrdering10k pins schedule-order firing inside one
// instant at population scale: 10k timers armed at the same time fire in
// arming order, and rescheduling a subset to the same instant moves
// exactly those timers to the back, in reschedule order. A heap that
// breaks ties by position instead of sequence number fails this
// immediately at this scale.
func TestSameInstantOrdering10k(t *testing.T) {
	const n = 10_000
	const at = 42.0
	var e Engine
	var got []int
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = e.At(at, func() { got = append(got, i) })
	}
	// Every 10th timer is rescheduled to the same instant: it must fire
	// after all untouched timers, in reschedule order.
	var moved []int
	for i := 0; i < n; i += 10 {
		e.Reschedule(handles[i], at)
		moved = append(moved, i)
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d of %d", len(got), n)
	}
	var want []int
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			want = append(want, i)
		}
	}
	want = append(want, moved...)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("fire order diverges at position %d: got %d, want %d", k, got[k], want[k])
		}
	}
}

// TestArmAllEquivalence checks that ArmAll is indistinguishable from a
// loop of At calls: same fire order (including same-instant ties against
// events armed before and after the bulk), and handles that Cancel,
// Reschedule and When like individually armed ones.
func TestArmAllEquivalence(t *testing.T) {
	times := []float64{5, 1, 3, 3, 2, 1, 8, 0, 3}

	var viaAt, viaBulk []int
	var a Engine
	a.At(3, func() { viaAt = append(viaAt, -1) })
	for i, tm := range times {
		i := i
		a.At(tm, func() { viaAt = append(viaAt, i) })
	}
	a.Run()

	var b Engine
	b.At(3, func() { viaBulk = append(viaBulk, -1) })
	b.HandleIDs(func(id int32) { viaBulk = append(viaBulk, int(id)) })
	arms := make([]Arm, len(times))
	for i, tm := range times {
		i := i
		if i%2 == 0 {
			arms[i] = Arm{At: tm, Fn: func() { viaBulk = append(viaBulk, i) }}
		} else {
			arms[i] = Arm{At: tm, ID: int32(i)}
		}
	}
	handles := b.ArmAll(arms)
	if len(handles) != len(times) {
		t.Fatalf("ArmAll returned %d handles for %d arms", len(handles), len(times))
	}
	b.Run()

	if len(viaAt) != len(viaBulk) {
		t.Fatalf("fired %d via At, %d via ArmAll", len(viaAt), len(viaBulk))
	}
	for k := range viaAt {
		if viaAt[k] != viaBulk[k] {
			t.Fatalf("fire order diverges at %d: At %v, ArmAll %v", k, viaAt, viaBulk)
		}
	}
}

// TestIDTimersEquivalence checks that arming a block in bulk is
// indistinguishable from arming its timers one Reschedule at a time in ID
// order: same fire order, ties against events armed before and after the
// block included, past times clamped to now. Unarmed timers are not
// pending until a Reschedule, and the reserved queue room means arming
// every one of them later allocates nothing.
func TestIDTimersEquivalence(t *testing.T) {
	times := []float64{5, 1, 3, 3, 2, 1, 8, 0, 3, 4}
	armed := func(id int32) bool { return id%3 != 2 }
	run := func(bulk bool) []int {
		var got []int
		var e Engine
		e.HandleIDs(func(id int32) { got = append(got, int(id)) })
		e.At(0.5, func() { got = append(got, -1) })
		e.Step() // now = 0.5: the 0 deadline clamps
		e.At(3, func() { got = append(got, -2) })
		hs := make([]Handle, len(times))
		e.IDTimers(len(times), func(id int32, h Handle) (float64, bool) {
			hs[id] = h
			return times[id], bulk && armed(id)
		})
		if !bulk {
			for id, h := range hs {
				if armed(int32(id)) {
					e.Reschedule(h, times[id])
				}
			}
		}
		e.At(3, func() { got = append(got, -3) })
		for id, h := range hs {
			if e.Pending(h) != armed(int32(id)) {
				t.Fatalf("bulk %v: timer %d pending %v", bulk, id, e.Pending(h))
			}
		}
		if w, _ := e.When(hs[7]); w != 0.5 {
			t.Fatalf("bulk %v: timer 7 armed at %g, want the clamp to 0.5", bulk, w)
		}
		e.Run()
		return got
	}
	if bulk, each := run(true), run(false); !slices.Equal(bulk, each) {
		t.Fatalf("fire order: bulk %v, one by one %v", bulk, each)
	}

	var e Engine
	e.HandleIDs(func(int32) {})
	hs := make([]Handle, 1000)
	e.IDTimers(len(hs), func(id int32, h Handle) (float64, bool) {
		hs[id] = h
		return 0, false
	})
	if e.Len() != 0 {
		t.Fatalf("%d events queued from an unarmed block", e.Len())
	}
	if n := testing.AllocsPerRun(1, func() {
		for i, h := range hs {
			e.Reschedule(h, float64(i))
		}
	}); n != 0 {
		t.Errorf("arming a block's timers allocated %g times, want 0", n)
	}
}

func TestArmAllHandles(t *testing.T) {
	var e Engine
	fired := make([]bool, 4)
	arms := make([]Arm, 4)
	for i := range arms {
		i := i
		arms[i] = Arm{At: float64(i + 1), Fn: func() { fired[i] = true }}
	}
	hs := e.ArmAll(arms)
	if !e.Cancel(hs[1]) {
		t.Fatal("Cancel on an ArmAll handle reported not-removed")
	}
	if !e.Reschedule(hs[2], 10) {
		t.Fatal("Reschedule on an ArmAll handle failed")
	}
	if w, ok := e.When(hs[2]); !ok || w != 10 {
		t.Fatalf("When after reschedule = %g,%v", w, ok)
	}
	e.Run()
	want := []bool{true, false, true, true}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if e.ArmAll(nil) != nil {
		t.Fatal("ArmAll(nil) returned handles")
	}
}

func TestArmAllPanicsOnPast(t *testing.T) {
	var e Engine
	e.At(5, func() {})
	e.Run() // now = 5
	defer func() {
		if recover() == nil {
			t.Fatal("ArmAll with a past deadline did not panic")
		}
	}()
	e.ArmAll([]Arm{{At: 1, Fn: func() {}}})
}

// TestMissingHandlerPanicsAtArmTime: an event with neither a callback nor
// an ID handler to receive it is refused where it is armed, with a message
// naming what is missing — not by a nil call when it fires.
func TestMissingHandlerPanicsAtArmTime(t *testing.T) {
	cases := []struct {
		name, want string
		arm        func(e *Engine)
	}{
		{"ArmAll", "HandleIDs", func(e *Engine) { e.ArmAll([]Arm{{At: 1, Fn: func() {}}, {At: 2, ID: 7}}) }},
		{"IDTimers", "HandleIDs", func(e *Engine) {
			e.IDTimers(8, func(int32, Handle) (float64, bool) { return 1, true })
		}},
		{"At", "nil fn", func(e *Engine) { e.At(1, nil) }},
	}
	for _, c := range cases {
		var e Engine
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			c.arm(&e)
		}()
		if e.Len() != 0 {
			t.Errorf("%s queued %d events before panicking", c.name, e.Len())
		}
	}
	// With a handler installed the same arms are legal and reach it.
	var e Engine
	var got []int32
	e.HandleIDs(func(id int32) { got = append(got, id) })
	e.ArmAll([]Arm{{At: 2, ID: 7}})
	e.IDTimers(10, func(id int32, _ Handle) (float64, bool) { return 1, id == 9 })
	e.Run()
	if len(got) != 2 || got[0] != 9 || got[1] != 7 {
		t.Fatalf("ID handler saw %v, want [9 7]", got)
	}
}
