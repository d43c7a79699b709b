package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Timeout wraps a scheduler with the paper's wait-time control: "the
// scheduler controls the wait time for all applications and can make sure
// that they do not exceed the time-out existing in the I/O system"
// (Section 2.1). Applications whose pending request is older than MaxWait
// are promoted ahead of the inner policy's choices, oldest first, so no
// request can starve past the file system's timeout regardless of the
// optimization objective.
type Timeout struct {
	Inner   Scheduler
	MaxWait float64
}

var _ Scheduler = Timeout{}
var _ Waker = Timeout{}
var _ ScratchAllocator = Timeout{}

// Waker is implemented by schedulers that need decision points at times of
// their own choosing, in addition to the model's I/O events. The engines
// (simulator, cluster emulator, TCP daemon) call NextWake after every
// allocation and arrange a re-allocation at the returned instant.
type Waker interface {
	// NextWake returns the next time the scheduler wants to re-decide,
	// and whether it wants one at all. Only applications currently
	// wanting I/O are passed in.
	NextWake(now float64, apps []*AppView) (float64, bool)
}

// NextWake implements Waker: the earliest pending application's expiry.
// Without it, a stall that begins mid-transfer could only be serviced at
// the next I/O event, far past the window.
func (t Timeout) NextWake(now float64, apps []*AppView) (float64, bool) {
	best := 0.0
	found := false
	for _, v := range apps {
		if v.Phase != Pending {
			continue
		}
		wake := v.PendingSince + t.MaxWait
		if wake <= now {
			wake = now + t.MaxWait // already expired; re-check one window out
		}
		if !found || wake < best {
			best, found = wake, true
		}
	}
	return best, found
}

// NewTimeout wraps inner; it panics on a non-positive window (a zero
// window would preempt every decision and means a configuration error).
func NewTimeout(inner Scheduler, maxWait float64) Timeout {
	if inner == nil {
		panic("core: Timeout with nil inner scheduler")
	}
	if maxWait <= 0 {
		panic(fmt.Sprintf("core: Timeout window %g, want > 0", maxWait))
	}
	return Timeout{Inner: inner, MaxWait: maxWait}
}

// Name implements Scheduler.
func (t Timeout) Name() string {
	return fmt.Sprintf("Timeout-%g(%s)", t.MaxWait, t.Inner.Name())
}

// Saturating implements the engine capability by delegation: when every
// candidate can be served at its full cap, nobody stalls past the window,
// so the expired partition is empty and the wrapper inherits the inner
// policy's uncongested behaviour.
func (t Timeout) Saturating() bool { return IsSaturating(t.Inner) }

// SingleFullGrant implements the engine capability by delegation: whether
// the lone candidate is expired (greedy at full card bandwidth) or not
// (inner policy, one candidate), the grant is min(β·b, B) as long as the
// inner policy guarantees it.
func (t Timeout) SingleFullGrant() bool { return IsSingleFullGrant(t.Inner) }

// Allocate implements Scheduler: expired stalls first (oldest first, at
// full card bandwidth), then the inner policy over the remaining capacity.
// An application counts as expired when it is currently stalled (Pending)
// and its stall began more than MaxWait ago — this covers both requests
// never served and transfers preempted for too long.
func (t Timeout) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	var scr Scratch
	return t.AllocateInto(&scr, now, apps, cap)
}

// AllocateInto implements ScratchAllocator. The wrapper partitions into
// the outer scratch and hands the inner policy the scratch's Inner(), so
// the two never clobber each other's buffers.
func (t Timeout) AllocateInto(scr *Scratch, now float64, apps []*AppView, cap Capacity) []Grant {
	expired, rest := scr.expired[:0], scr.rest[:0]
	for _, v := range apps {
		if v.Phase == Pending && now-v.PendingSince > t.MaxWait {
			expired = append(expired, v)
		} else {
			rest = append(rest, v)
		}
	}
	scr.expired, scr.rest = expired, rest
	if len(expired) == 0 {
		return AllocateWith(t.Inner, scr.Inner(), now, apps, cap)
	}
	slices.SortStableFunc(expired, func(a, b *AppView) int {
		if c := cmp.Compare(a.PendingSince, b.PendingSince); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	grants := GreedyAllocateAppend(scr.grants[:0], expired, cap)
	var used float64
	for _, g := range grants {
		used += g.BW
	}
	remaining := cap
	remaining.TotalBW -= used
	if remaining.TotalBW > 0 && len(rest) > 0 {
		grants = append(grants, AllocateWith(t.Inner, scr.Inner(), now, rest, remaining)...)
	}
	scr.grants = grants
	return grants
}
