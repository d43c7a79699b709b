package periodic

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
)

// builder incrementally inserts instances into a period.
type builder struct {
	p       *platform.Platform
	T       float64
	profile *Profile
	apps    []*AppSchedule
	cursor  []float64 // per-app: earliest time the next compute may start
}

// buildScratch holds the buffers one period-search loop reuses across
// candidate periods: the usage profile's breakpoint storage, the
// per-application cursors, and the insertion heuristics' working slices.
// Only the winning schedule's slots survive a build; everything else is
// recycled. The zero value is ready to use.
type buildScratch struct {
	profile Profile
	cursor  []float64
	order   []int
	weight  []float64
	blocked []bool
}

func newBuilder(p *platform.Platform, apps []*platform.App, T float64, scr *buildScratch) (*builder, error) {
	if err := platform.ValidateApps(p, apps); err != nil {
		return nil, err
	}
	if scr == nil {
		scr = &buildScratch{}
	}
	if scr.profile.pts == nil {
		scr.profile = *NewProfile(T)
	} else {
		scr.profile.Reset(T)
	}
	if cap(scr.cursor) < len(apps) {
		scr.cursor = make([]float64, len(apps))
	}
	scr.cursor = scr.cursor[:len(apps)]
	for i := range scr.cursor {
		scr.cursor[i] = 0
	}
	b := &builder{
		p:       p,
		T:       T,
		profile: &scr.profile,
		cursor:  scr.cursor,
	}
	for _, a := range apps {
		if !a.IsPeriodic() {
			return nil, fmt.Errorf("periodic: app %d is not periodic", a.ID)
		}
		b.apps = append(b.apps, &AppSchedule{App: a})
	}
	return b, nil
}

// tryInsert attempts to add one more instance of application index i,
// placing its I/O at the first instant where the volume fits contiguously
// at a constant bandwidth. It reports whether the instance was placed.
func (b *builder) tryInsert(i int) bool {
	as := b.apps[i]
	a := as.App
	w, vol := workOf(a), volOf(a)
	start := b.cursor[i]
	workEnd := start + w
	if workEnd > b.T+1e-9 {
		return false
	}
	if vol <= 0 {
		as.Slots = append(as.Slots, Slot{WorkStart: start, WorkEnd: workEnd,
			IOStart: workEnd, IOEnd: workEnd})
		b.cursor[i] = workEnd
		return true
	}
	cardBW := float64(a.Nodes) * b.p.NodeBW
	minDur := vol / math.Min(cardBW, b.p.TotalBW)
	// Candidate start times: the end of the compute phase, then every
	// availability breakpoint after it.
	u := workEnd
	for u+minDur <= b.T+1e-9 {
		if g, ok := b.fitAt(u, vol, cardBW); ok {
			dur := vol / g
			as.Slots = append(as.Slots, Slot{
				WorkStart: start, WorkEnd: workEnd,
				IOStart: u, IOEnd: u + dur, BW: g,
			})
			b.profile.Add(u, u+dur, g)
			b.cursor[i] = u + dur
			return true
		}
		next := b.profile.NextBreak(u)
		if next <= u {
			break
		}
		u = next
	}
	return false
}

// fitAt searches for the largest constant bandwidth g ≤ cardBW such that
// transferring vol starting at u fits under the remaining capacity for the
// whole duration vol/g, ending within the period. The fixpoint iteration
// terminates because g only decreases through the finitely many
// availability levels of the profile.
func (b *builder) fitAt(u, vol, cardBW float64) (float64, bool) {
	avail := b.p.TotalBW - b.profile.UsageAt(u)
	g := math.Min(cardBW, avail)
	for iter := 0; iter < 2*len(b.profile.pts)+4; iter++ {
		if g <= 1e-12 {
			return 0, false
		}
		dur := vol / g
		if u+dur > b.T+1e-9 {
			// Lowering g only lengthens the transfer; no fit here.
			return 0, false
		}
		m := b.p.TotalBW - b.profile.MaxUsage(u, u+dur)
		if m >= g-1e-12 {
			return g, true
		}
		g = math.Min(g, m)
	}
	return 0, false
}

func (b *builder) schedule() *Schedule {
	return &Schedule{Platform: b.p, T: b.T, Apps: b.apps}
}

// BuildThrou implements Insert-In-Schedule-Throu: applications sorted by
// non-decreasing w/time_io (the paper's stated order; set descending for
// the ablation-throu-order experiment), each packed with as many instances as
// fit before moving to the next application.
func BuildThrou(p *platform.Platform, apps []*platform.App, T float64, descending bool) (*Schedule, error) {
	return buildThrou(p, apps, T, descending, &buildScratch{})
}

func buildThrou(p *platform.Platform, apps []*platform.App, T float64, descending bool, scr *buildScratch) (*Schedule, error) {
	b, err := newBuilder(p, apps, T, scr)
	if err != nil {
		return nil, err
	}
	if cap(scr.order) < len(apps) {
		scr.order = make([]int, len(apps))
	}
	order := scr.order[:len(apps)]
	for i := range order {
		order[i] = i
	}
	key := func(i int) float64 {
		a := apps[i]
		tio := a.IOTime(p, 0)
		if tio == 0 {
			return math.Inf(1)
		}
		return workOf(a) / tio
	}
	slices.SortStableFunc(order, func(x, y int) int {
		if descending {
			return cmp.Compare(key(y), key(x))
		}
		return cmp.Compare(key(x), key(y))
	})
	for _, i := range order {
		for b.tryInsert(i) {
		}
	}
	return b.schedule(), nil
}

// BuildCong implements Insert-In-Schedule-Cong: repeatedly advance the
// application whose scheduled share n_per·(w+time_io) is currently the
// smallest (the paper's literal "largest" cannot be meant: an added
// instance only grows the advanced application's share, so one application
// would take every instance), until no application can accept another
// instance.
func BuildCong(p *platform.Platform, apps []*platform.App, T float64) (*Schedule, error) {
	return buildCong(p, apps, T, &buildScratch{})
}

func buildCong(p *platform.Platform, apps []*platform.App, T float64, scr *buildScratch) (*Schedule, error) {
	b, err := newBuilder(p, apps, T, scr)
	if err != nil {
		return nil, err
	}
	if cap(scr.weight) < len(apps) {
		scr.weight = make([]float64, len(apps))
		scr.blocked = make([]bool, len(apps))
	}
	weight, blocked := scr.weight[:len(apps)], scr.blocked[:len(apps)]
	for i, a := range apps {
		weight[i] = workOf(a) + a.IOTime(p, 0)
		blocked[i] = false
	}
	for {
		best := -1
		var bestKey float64
		for i := range apps {
			if blocked[i] {
				continue
			}
			key := float64(b.apps[i].NPer()) * weight[i]
			if best == -1 || key < bestKey ||
				(key == bestKey && weight[i] > weight[best]) {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			break
		}
		if !b.tryInsert(best) {
			blocked[best] = true
		}
	}
	return b.schedule(), nil
}

// Builder names for SearchPeriod.
const (
	HeuristicThrou = "Insert-In-Schedule-Throu"
	HeuristicCong  = "Insert-In-Schedule-Cong"
)

// SearchResult is the outcome of the period search.
type SearchResult struct {
	Schedule *Schedule
	// Tried is the number of candidate periods evaluated.
	Tried int
	// BestSysEff and BestDilation are the objectives of the returned
	// schedule.
	BestSysEff   float64
	BestDilation float64
}

// SearchPeriod runs the paper's period search: start from
// T = max_k (w + time_io), grow by (1+ε) until Tmax, build a schedule for
// each period with the named heuristic, and keep the best. Throu keeps the
// schedule with the highest SysEfficiency; Cong the one with the lowest
// Dilation (ties broken by SysEfficiency).
func SearchPeriod(p *platform.Platform, apps []*platform.App, heuristic string, Tmax, eps float64) (*SearchResult, error) {
	if eps <= 0 {
		return nil, errors.New("periodic: eps must be > 0")
	}
	if len(apps) == 0 {
		return nil, errors.New("periodic: no applications")
	}
	T0 := 0.0
	for _, a := range apps {
		if t := workOf(a) + a.IOTime(p, 0); t > T0 {
			T0 = t
		}
	}
	if Tmax < T0 {
		return nil, fmt.Errorf("periodic: Tmax = %g below minimum period %g", Tmax, T0)
	}
	res := &SearchResult{BestDilation: math.Inf(1), BestSysEff: math.Inf(-1)}
	var scr buildScratch // shared across the (1+ε) sweep
	for T := T0; T <= Tmax*(1+1e-12); T *= 1 + eps {
		var s *Schedule
		var err error
		switch heuristic {
		case HeuristicThrou:
			s, err = buildThrou(p, apps, T, false, &scr)
		case HeuristicCong:
			s, err = buildCong(p, apps, T, &scr)
		default:
			return nil, fmt.Errorf("periodic: unknown heuristic %q", heuristic)
		}
		if err != nil {
			return nil, err
		}
		res.Tried++
		eff, dil := s.SysEfficiency(), s.Dilation()
		better := false
		switch heuristic {
		case HeuristicThrou:
			better = eff > res.BestSysEff
		case HeuristicCong:
			better = dil < res.BestDilation ||
				(dil == res.BestDilation && eff > res.BestSysEff)
		}
		if better {
			res.Schedule, res.BestSysEff, res.BestDilation = s, eff, dil
		}
	}
	if res.Schedule == nil {
		return nil, errors.New("periodic: no feasible schedule found")
	}
	return res, nil
}
