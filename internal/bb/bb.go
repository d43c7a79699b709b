// Package bb models a burst buffer: a finite-capacity staging tier between
// compute nodes and the parallel file system. While the buffer has free
// space, writes land in it at up to IngestBW aggregate bandwidth and the
// buffer drains to the file system at DrainBW; once full, ingest is limited
// to the drain rate. This captures the two regimes the paper's
// burst-buffer comparison relies on: applications "resume their execution
// right after they transferred their I/O volume to the burst buffer,
// instead of waiting for the I/O network" — until the buffer fills.
//
// The model is piecewise-linear in time: between rate changes the level
// evolves at a constant net rate, so fill/empty crossings are exact. Both
// the application-level simulator (internal/sim) and the rank-level cluster
// emulator (internal/cluster) advance one of these models between events.
package bb

import "fmt"

// levelEps is the tolerance below capacity at which the buffer counts as
// full (absorbs floating-point drift in level integration).
const levelEps = 1e-9

// Model is the burst-buffer state. Create with New; advance with Advance.
type Model struct {
	Capacity float64 // GiB
	IngestBW float64 // GiB/s aggregate from compute nodes into the buffer
	DrainBW  float64 // GiB/s from the buffer to the file system (= B)

	level    float64
	peak     float64
	fullTime float64
}

// New returns a burst-buffer model; it panics on non-positive parameters
// (construction inputs come from validated platform presets).
func New(capacity, ingest, drain float64) *Model {
	if capacity <= 0 || ingest <= 0 || drain <= 0 {
		panic(fmt.Sprintf("bb: invalid model (capacity=%g ingest=%g drain=%g)", capacity, ingest, drain))
	}
	return &Model{Capacity: capacity, IngestBW: ingest, DrainBW: drain}
}

// Level returns the current fill level (GiB).
func (m *Model) Level() float64 { return m.level }

// Peak returns the maximum level reached so far.
func (m *Model) Peak() float64 { return m.peak }

// FullTime returns the cumulative time spent full (seconds).
func (m *Model) FullTime() float64 { return m.fullTime }

// Full reports whether the buffer is (numerically) full.
func (m *Model) Full() bool { return m.level >= m.Capacity-levelEps }

// IngestCapacity returns the aggregate bandwidth available to writers
// right now: IngestBW while the buffer has free space, the drain rate once
// it is full.
func (m *Model) IngestCapacity() float64 {
	if m.Full() {
		return m.DrainBW
	}
	return m.IngestBW
}

// NetRate returns d(level)/dt for the given aggregate write rate. An empty
// buffer with inflow below the drain rate passes writes straight through
// (level stays zero).
func (m *Model) NetRate(inflow float64) float64 {
	drain := m.DrainBW
	if m.level <= levelEps && inflow < drain {
		drain = inflow
	}
	return inflow - drain
}

// TimeToFull returns how long until the buffer fills at the given inflow,
// and whether it fills at all under current rates.
func (m *Model) TimeToFull(inflow float64) (float64, bool) {
	if m.Full() {
		return 0, false
	}
	net := m.NetRate(inflow)
	if net <= 0 {
		return 0, false
	}
	return (m.Capacity - m.level) / net, true
}

// Advance integrates the level over dt seconds of constant inflow,
// clamping to [0, Capacity] and accounting peak and full-time statistics.
// Callers must not step across a fill crossing (use TimeToFull to bound
// the step); stepping across an empty crossing is fine — the level clamps
// at zero, which matches pass-through behaviour.
func (m *Model) Advance(dt, inflow float64) {
	if dt < 0 {
		panic(fmt.Sprintf("bb: negative step %g", dt))
	}
	if m.Full() {
		m.fullTime += dt
	}
	m.level += float64(m.NetRate(inflow) * dt)
	if m.level < 0 {
		m.level = 0
	}
	if m.level > m.Capacity {
		m.level = m.Capacity
	}
	if m.level > m.peak {
		m.peak = m.level
	}
}

// Reset empties the buffer and clears statistics.
func (m *Model) Reset() {
	m.level, m.peak, m.fullTime = 0, 0, 0
}

// Restore installs a previously captured state (level, peak, cumulative
// full time), clamping the level into [0, Capacity]. It is the warm-start
// hook for simulation snapshots: a model restored from (Level, Peak,
// FullTime) continues bit-identically to one that integrated its way
// there.
func (m *Model) Restore(level, peak, fullTime float64) {
	if level < 0 {
		level = 0
	}
	if level > m.Capacity {
		level = m.Capacity
	}
	if peak < level {
		peak = level
	}
	if fullTime < 0 {
		fullTime = 0
	}
	m.level, m.peak, m.fullTime = level, peak, fullTime
}
