// Package core implements the paper's primary contribution: the global
// high-level I/O scheduler. It defines the scheduler-visible application
// state (efficiency accounting, Section 2.2), the greedy event-driven
// bandwidth allocation used by every online heuristic (Section 3.1), the
// four heuristics RoundRobin, MinDilation, MaxSysEff and MinMax-γ with
// their Priority variants, and the max-min fair-share baseline standing in
// for the production Intrepid/Mira I/O schedulers.
package core

// Phase is the scheduler-visible activity of an application.
type Phase int

const (
	// Computing: the application is in a compute chunk; it does not want
	// bandwidth.
	Computing Phase = iota
	// Pending: the compute chunk is done and the application is asking to
	// perform I/O (stalled until granted bandwidth).
	Pending
	// Transferring: the application currently holds a nonzero bandwidth
	// grant and is mid-transfer.
	Transferring
	// Finished: all instances completed.
	Finished
)

func (p Phase) String() string {
	switch p {
	case Computing:
		return "computing"
	case Pending:
		return "pending"
	case Transferring:
		return "transferring"
	case Finished:
		return "finished"
	}
	return "unknown"
}

// AppView is the state of one application as seen by the global scheduler
// at a decision event. The simulator (or the cluster emulator) keeps these
// up to date; heuristics read them and never mutate them.
type AppView struct {
	ID    int
	Nodes int // β(k)

	Release float64 // r(k)
	Phase   Phase

	// RemVolume is the volume (GiB) left in the current I/O transfer.
	// Meaningful when Phase is Pending or Transferring.
	RemVolume float64

	// Started reports whether the current transfer has already moved bytes.
	// The Priority variants keep such applications first to preserve disk
	// locality.
	Started bool

	// LastIOEnd is the completion time of the application's last finished
	// I/O transfer, or Release if none has finished. RoundRobin favors the
	// application with the oldest value.
	LastIOEnd float64

	// PendingSince is the onset of the application's current stall: when
	// its request entered the system, or when its running transfer was
	// last preempted to zero bandwidth. The Timeout wrapper promotes
	// stalls older than the file system's wait limit.
	PendingSince float64

	// CreditedWork is Σ w over instances whose compute phase has completed
	// by now. The compute phase is never slowed (nodes are dedicated), so
	// crediting work at compute completion is exact.
	CreditedWork float64

	// CreditedIdeal is Σ (w + time_io) over the same instances: the time a
	// congestion-free execution would have needed for them.
	CreditedIdeal float64
}

// AchievedEff returns ρ̃(k)(t) = CreditedWork / (t − r). Before the first
// instance completes its compute phase the value is 0 by convention.
func (v *AppView) AchievedEff(now float64) float64 {
	el := now - v.Release
	if el <= 0 || v.CreditedWork == 0 {
		return 0
	}
	return v.CreditedWork / el
}

// OptimalEff returns ρ(k)(t) = CreditedWork / CreditedIdeal, the efficiency
// a congestion-free execution would show over the same instances.
func (v *AppView) OptimalEff() float64 {
	if v.CreditedIdeal <= 0 {
		return 1
	}
	return v.CreditedWork / v.CreditedIdeal
}

// Ratio returns ρ̃(k)(t) / ρ(k)(t) ∈ [0, 1], the application's current
// relative progress rate (1 = on the congestion-free trajectory). Before
// any instance is credited the ratio is 1: the application has not been
// slowed yet.
func (v *AppView) Ratio(now float64) float64 {
	if v.CreditedWork == 0 {
		return 1
	}
	opt := v.OptimalEff()
	if opt <= 0 {
		return 1
	}
	r := v.AchievedEff(now) / opt
	if r > 1 {
		return 1
	}
	return r
}

// WeightedEff returns β(k)·ρ̃(k)(t), the application's current contribution
// to SysEfficiency. MaxSysEff favors low values.
func (v *AppView) WeightedEff(now float64) float64 {
	return float64(v.Nodes) * v.AchievedEff(now)
}

// WantsIO reports whether the application should be considered by the
// allocator at this event.
func (v *AppView) WantsIO() bool {
	return (v.Phase == Pending || v.Phase == Transferring) && v.RemVolume > 0
}
