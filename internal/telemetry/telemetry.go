// Package telemetry is the shared low-overhead time-series layer of the
// simulator and the scheduler daemon. Both engines sample the same
// congestion signals at their decision points — PFS bandwidth
// utilization, congestion backlog (aggregate demand over B), candidate
// count, burst-buffer level, instantaneous Jain fairness over grants and
// running stretch — into a Probe, and both time their service paths into
// log-bucketed histograms. The package also provides windowed
// aggregation over the captured series (the foundation for open-system
// steady-state reporting) and Prometheus text exposition.
//
// Cost model: a nil *Probe is the disabled state and every capture site
// is gated on it, so disabled telemetry leaves the hot paths untouched
// (the daemon's steady round stays allocation-free, pinned by
// TestSteadyRoundAllocationFree). An enabled Probe with a bounded point
// buffer (MaxPoints > 0) is allocation-free in steady state too: points
// land in a pre-sized ring, histograms are fixed arrays of atomic
// counters, and sampling walks only the candidate set.
package telemetry

import (
	"sync"

	"repro/internal/core"
)

// Point is one sample of the engine-shared congestion signals, taken at
// a decision point after grants were applied. All per-candidate signals
// (utilization, backlog, fairness, stretch) are computed over the
// allocator-visible candidate set in ascending application-ID order, so
// the simulator and the daemon produce bit-identical points for
// equivalent states (see PointBuilder).
type Point struct {
	// Time is the engine clock (seconds): simulated time in the
	// simulator, seconds since start in the daemon.
	Time float64 `json:"t"`
	// Utilization is the aggregate granted bandwidth over the allocatable
	// capacity B (0 when nothing transfers, 1 when the PFS is saturated).
	Utilization float64 `json:"util"`
	// Backlog is the aggregate candidate demand Σ β(k)·b over B: values
	// above 1 mean the system is congested and someone must wait.
	Backlog float64 `json:"backlog"`
	// Candidates is the number of applications wanting I/O.
	Candidates int `json:"candidates"`
	// BBLevel is the burst-buffer fill level in GiB (0 without one).
	BBLevel float64 `json:"bb_level"`
	// Jain is the instantaneous Jain fairness index over the candidates'
	// grants, (Σbw)²/(n·Σbw²) ∈ (0,1]; 1 when no candidate holds a grant
	// (vacuously fair) or when all grants are equal.
	Jain float64 `json:"jain"`
	// MaxStretch and MeanStretch summarize the candidates' running
	// stretch 1/Ratio(now) ≥ 1 (core.AppView.Ratio): how far behind the
	// congestion-free trajectory the waiting applications are. 1 when no
	// candidates exist.
	MaxStretch  float64 `json:"max_stretch"`
	MeanStretch float64 `json:"mean_stretch"`
}

// PointBuilder accumulates one Point from a walk over the candidate set.
// Both engines use it so the floating-point operations — and therefore
// the sampled values — are identical for identical candidate state
// walked in the same order.
type PointBuilder struct {
	n          int
	bwSum      float64
	bwSumSq    float64
	demand     float64
	stretchSum float64
	stretchMax float64
}

// Add folds one candidate into the point: its view, its currently
// applied grant and the per-node bandwidth b.
//
//iosched:allocfree
func (b *PointBuilder) Add(now float64, v *core.AppView, bw, nodeBW float64) {
	b.n++
	b.bwSum += bw
	b.bwSumSq += float64(bw * bw)
	b.demand += float64(float64(v.Nodes) * nodeBW)
	st := 1 / v.Ratio(now)
	b.stretchSum += st
	if st > b.stretchMax {
		b.stretchMax = st
	}
}

// Finish closes the walk and returns the point. totalBW is the
// allocatable capacity B the utilization and backlog are normalized by;
// bbLevel is the burst-buffer fill (0 without one).
//
//iosched:allocfree
func (b *PointBuilder) Finish(now, totalBW, bbLevel float64) Point {
	pt := Point{
		Time:        now,
		Candidates:  b.n,
		BBLevel:     bbLevel,
		Jain:        1,
		MaxStretch:  1,
		MeanStretch: 1,
	}
	if totalBW > 0 {
		pt.Utilization = b.bwSum / totalBW
		pt.Backlog = b.demand / totalBW
	}
	if b.n > 0 {
		if b.bwSumSq > 0 {
			pt.Jain = b.bwSum * b.bwSum / (float64(b.n) * b.bwSumSq)
		}
		pt.MaxStretch = b.stretchMax
		pt.MeanStretch = b.stretchSum / float64(b.n)
	}
	return pt
}

// Probe collects telemetry for one engine. The zero value is ready to
// use; configure the exported fields before attaching it (they must not
// change afterwards). A nil *Probe means telemetry is disabled — every
// capture site in the engines is gated on that, so nil costs nothing.
//
// Probe is concurrency-safe: the engines record under their own state
// locks, while Snapshot may be called from any goroutine (a monitoring
// HTTP handler) without stopping the engine.
type Probe struct {
	// MinInterval is the minimum engine-clock spacing between accepted
	// points, in seconds. Zero samples every decision point. The first
	// point is always accepted.
	MinInterval float64

	// MaxPoints bounds the point buffer: once full it becomes a ring and
	// the oldest points are overwritten, so a long-running daemon holds a
	// sliding window at a fixed memory cost (and records with zero
	// allocations). Zero keeps every point (simulation runs).
	MaxPoints int

	mu      sync.Mutex
	pts     []Point
	head    int // ring start, meaningful once wrapped
	wrapped bool
	lastT   float64
	hasLast bool

	histMu sync.Mutex
	hists  []namedHist // creation-ordered; names unique
}

type namedHist struct {
	name string
	h    *Histogram
}

// Due reports whether a sample at engine time t would be accepted under
// MinInterval. Engines check it before paying the cost of building a
// Point; it does not change probe state.
//
//iosched:allocfree
func (p *Probe) Due(t float64) bool {
	p.mu.Lock()
	due := !p.hasLast || t-p.lastT >= p.MinInterval
	p.mu.Unlock()
	return due
}

// Record appends one point (and advances the MinInterval gate). Points
// must be recorded in nondecreasing Time order.
//
//iosched:allocfree
func (p *Probe) Record(pt Point) {
	p.mu.Lock()
	p.lastT = pt.Time
	p.hasLast = true
	if p.MaxPoints > 0 {
		if p.pts == nil {
			//iosched:allocfree-allow one-time ring-buffer allocation on the first bounded record
			p.pts = make([]Point, 0, p.MaxPoints)
		}
		if len(p.pts) < p.MaxPoints {
			p.pts = append(p.pts, pt)
		} else {
			p.pts[p.head] = pt
			p.head++
			if p.head == p.MaxPoints {
				p.head = 0
			}
			p.wrapped = true
		}
	} else {
		p.pts = append(p.pts, pt)
	}
	p.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
// Creation order is remembered: HistogramNames and Snapshot list
// histograms in it, so exposition output is deterministic.
func (p *Probe) Histogram(name string) *Histogram {
	p.histMu.Lock()
	defer p.histMu.Unlock()
	for _, nh := range p.hists {
		if nh.name == name {
			return nh.h
		}
	}
	h := NewHistogram()
	p.hists = append(p.hists, namedHist{name: name, h: h})
	return h
}

// HistogramNames returns the histogram names in creation order.
func (p *Probe) HistogramNames() []string {
	p.histMu.Lock()
	defer p.histMu.Unlock()
	names := make([]string, len(p.hists))
	for i, nh := range p.hists {
		names[i] = nh.name
	}
	return names
}

// Points returns the number of points currently held.
func (p *Probe) Points() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pts)
}

// Last returns the most recent point; ok is false before the first.
func (p *Probe) Last() (pt Point, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pts) == 0 {
		return Point{}, false
	}
	if p.wrapped && p.head == 0 {
		return p.pts[len(p.pts)-1], true
	}
	if p.wrapped {
		return p.pts[p.head-1], true
	}
	return p.pts[len(p.pts)-1], true
}

// Snapshot copies the captured series and histograms into a Telemetry
// without stopping the engine: the point copy happens under the probe
// lock (engines hold it only for the duration of one append), and
// histogram snapshots are lock-free atomic reads.
func (p *Probe) Snapshot() *Telemetry {
	t := &Telemetry{}
	p.mu.Lock()
	t.Points = make([]Point, 0, len(p.pts))
	if p.wrapped {
		t.Points = append(t.Points, p.pts[p.head:]...)
		t.Points = append(t.Points, p.pts[:p.head]...)
	} else {
		t.Points = append(t.Points, p.pts...)
	}
	p.mu.Unlock()

	p.histMu.Lock()
	hists := append([]namedHist(nil), p.hists...)
	p.histMu.Unlock()
	if len(hists) > 0 {
		t.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for _, nh := range hists {
			t.Histograms[nh.name] = nh.h.Snapshot()
		}
	}
	return t
}

// Telemetry is an immutable snapshot of a probe: the captured points in
// time order and the histogram states. It is the optional Telemetry
// field of sim.Result and the payload of telemetry dumps.
type Telemetry struct {
	Points     []Point                      `json:"points"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}
