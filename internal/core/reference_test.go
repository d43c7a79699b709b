package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file is the policy layer's independent reference: the favored-first
// path as it was before the keyed heap — three composed stable sorts (by
// ID, by the heuristic's key with the key recomputed inside every
// comparison, then the Started partition) followed by GreedyAllocate — kept
// as a test-only oracle on sort.SliceStable, sharing nothing with the
// production path but AppView's accessors and the greedy loop.

type refOrder func(now float64, apps []*AppView)

func refByLastIOEnd(now float64, apps []*AppView) {
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].LastIOEnd < apps[j].LastIOEnd })
}

func refByRatio(now float64, apps []*AppView) {
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].Ratio(now) < apps[j].Ratio(now) })
}

func refByWeightedEff(now float64, apps []*AppView) {
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].WeightedEff(now) < apps[j].WeightedEff(now) })
}

func refMinMax(gamma float64) refOrder {
	return func(now float64, apps []*AppView) {
		for _, v := range apps {
			if v.Ratio(now) < gamma {
				refByRatio(now, apps)
				return
			}
		}
		refByWeightedEff(now, apps)
	}
}

// refScheduler is the oracle behind the Scheduler interface, so it can sit
// inside the reference Timeout as well.
type refScheduler struct {
	order    refOrder
	priority bool
}

func (refScheduler) Name() string { return "reference" }

func (r refScheduler) Allocate(now float64, apps []*AppView, cap Capacity) []Grant {
	order := append([]*AppView(nil), apps...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	r.order(now, order)
	if r.priority {
		sort.SliceStable(order, func(i, j int) bool { return order[i].Started && !order[j].Started })
	}
	return GreedyAllocate(order, cap)
}

// refTimeout is Timeout's rule spelled out over an arbitrary inner
// scheduler: expired stalls oldest first (ties by ID) at full card
// bandwidth, the inner policy over what is left.
func refTimeout(inner Scheduler, maxWait, now float64, apps []*AppView, cap Capacity) []Grant {
	var expired, rest []*AppView
	for _, v := range apps {
		if v.Phase == Pending && now-v.PendingSince > maxWait {
			expired = append(expired, v)
		} else {
			rest = append(rest, v)
		}
	}
	if len(expired) == 0 {
		return inner.Allocate(now, apps, cap)
	}
	sort.SliceStable(expired, func(i, j int) bool {
		if expired[i].PendingSince != expired[j].PendingSince {
			return expired[i].PendingSince < expired[j].PendingSince
		}
		return expired[i].ID < expired[j].ID
	})
	grants := GreedyAllocate(expired, cap)
	var used float64
	for _, g := range grants {
		used += g.BW
	}
	cap.TotalBW -= used
	if cap.TotalBW > 0 && len(rest) > 0 {
		grants = append(grants, inner.Allocate(now, rest, cap)...)
	}
	return grants
}

// refPair is a shipped heuristic next to its oracle.
type refPair struct {
	h   *Heuristic
	ref refScheduler
}

// referencePairs lists AllHeuristics() next to their oracles, same order.
func referencePairs() []refPair {
	orders := []refOrder{refByLastIOEnd, refByRatio, refByWeightedEff, refMinMax(0.5)}
	var out []refPair
	for i, s := range AllHeuristics() {
		h := s.(*Heuristic)
		out = append(out, refPair{h, refScheduler{order: orders[i/2], priority: h.Priority}})
	}
	return out
}

// Value tables for decoded views: few distinct values, so keys tie heavily
// (equal LastIOEnd, ±0, CreditedWork 0 ⇒ ratio 1 and efficiency 0, zero
// nodes, releases at or after the decision time).
var (
	fuzzNodes    = []int{0, 1, 1, 2, 4, 4, 8, 64}
	fuzzLastEnd  = []float64{0, math.Copysign(0, -1), 10, 10, 20, 75.5, -3, 99}
	fuzzWork     = []float64{0, 0, 10, 30, 30, 100, 1e-9, 250}
	fuzzIdeal    = []float64{0, 12, 40, 80, 100, 100, 300, 1e6}
	fuzzRelease  = []float64{0, 0, 1, 50, 100, 100, 150, -20}
	fuzzPendSinc = []float64{0, 5, 5, 50, 90, 99, 100, 120}
	fuzzNodeBW   = []float64{1, 1, 0.25, 0.0125, 0, -1, 3, 1}
)

const fuzzNow = 100.0

// decodeCase turns fuzz bytes into a decision: two header bytes choose the
// capacity regime, then six bytes per view (at most 300 views).
func decodeCase(data []byte) ([]*AppView, Capacity) {
	var hdr [2]byte
	copy(hdr[:], data)
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	n := len(data) / 6
	if n > 300 {
		n = 300
	}
	views := make([]*AppView, n)
	var demand, maxCap float64
	cap := Capacity{NodeBW: fuzzNodeBW[hdr[0]%8]}
	for i := range views {
		b := data[6*i : 6*i+6]
		v := &AppView{
			// 37 is coprime with 1009: unique, non-monotonic IDs.
			ID:            (i*37 + 11) % 1009,
			Nodes:         fuzzNodes[b[0]%8],
			LastIOEnd:     fuzzLastEnd[b[1]%8],
			CreditedWork:  fuzzWork[b[2]%8],
			CreditedIdeal: fuzzIdeal[b[3]%8],
			Release:       fuzzRelease[b[4]%8],
			PendingSince:  fuzzPendSinc[b[5]%8],
			Started:       b[5]&8 != 0,
			Phase:         Pending,
			RemVolume:     1,
		}
		if b[5]&16 != 0 {
			v.Phase = Transferring
		}
		views[i] = v
		c := float64(v.Nodes) * cap.NodeBW
		demand += c
		maxCap = math.Max(maxCap, c)
	}
	switch hdr[1] % 8 {
	case 0:
		cap.TotalBW = 0
	case 1:
		cap.TotalBW = -3
	case 2:
		cap.TotalBW = maxCap / 2 // below one cap
	case 3:
		cap.TotalBW = 3.5 * maxCap // the measured traffic: a few grants, then dry
	case 4:
		cap.TotalBW = demand // exactly the demand
	case 5:
		cap.TotalBW = demand * 2
	case 6:
		cap.TotalBW = demand / 3
	case 7:
		cap.TotalBW = 1e9
	}
	return views, cap
}

func sameVerdict(a, b []Grant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].AppID != b[i].AppID || math.Float64bits(a[i].BW) != math.Float64bits(b[i].BW) {
			return false
		}
	}
	return true
}

// checkAgainstReference runs one decoded decision through checkVerdicts.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	views, cap := decodeCase(data)
	checkVerdicts(t, views, cap)
}

// checkVerdicts runs one decision through all eight heuristics, bare and
// under Timeout, and requires verdicts equal to the oracle's element for
// element — ID and exact BW bits — from Allocate and from AllocateInto on
// a scratch left dirty by the previous policy.
func checkVerdicts(t *testing.T, views []*AppView, cap Capacity) {
	t.Helper()
	var scr Scratch
	for _, p := range referencePairs() {
		want := p.ref.Allocate(fuzzNow, views, cap)
		if got := p.h.Allocate(fuzzNow, views, cap); !sameVerdict(got, want) {
			t.Fatalf("%s.Allocate over %d views, cap %+v:\n got %v\nwant %v", p.h.Name(), len(views), cap, got, want)
		}
		if got := p.h.AllocateInto(&scr, fuzzNow, views, cap); !sameVerdict(got, want) {
			t.Fatalf("%s.AllocateInto over %d views, cap %+v:\n got %v\nwant %v", p.h.Name(), len(views), cap, got, want)
		}
		for _, wait := range []float64{7, 60} {
			to := NewTimeout(p.h, wait)
			want := refTimeout(p.ref, wait, fuzzNow, views, cap)
			if got := to.Allocate(fuzzNow, views, cap); !sameVerdict(got, want) {
				t.Fatalf("%s.Allocate over %d views, cap %+v:\n got %v\nwant %v", to.Name(), len(views), cap, got, want)
			}
			if got := to.AllocateInto(&scr, fuzzNow, views, cap); !sameVerdict(got, want) {
				t.Fatalf("%s.AllocateInto over %d views, cap %+v:\n got %v\nwant %v", to.Name(), len(views), cap, got, want)
			}
		}
	}
}

// fuzzSeeds is the committed corpus: the empty decision, single views, the
// measured traffic shape, both sides of the former 64-element sort
// boundary, and 300 views, across the capacity regimes.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(23))
	var seeds [][]byte
	for _, n := range []int{0, 1, 2, 8, 33, 63, 64, 65, 96, 300} {
		for capMode := 0; capMode < 8; capMode++ {
			b := make([]byte, 2+6*n)
			rng.Read(b)
			b[1] = byte(capMode)
			seeds = append(seeds, b)
		}
	}
	return seeds
}

// TestHeuristicsMatchReference is the seeded property test over the
// committed corpus plus random decisions of every size from 0 to 300.
func TestHeuristicsMatchReference(t *testing.T) {
	for _, b := range fuzzSeeds() {
		checkAgainstReference(t, b)
	}
	rng := rand.New(rand.NewSource(29))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		b := make([]byte, 2+6*rng.Intn(301))
		rng.Read(b)
		checkAgainstReference(t, b)
	}
}

// FuzzHeuristicVerdict lets the fuzzer search for a decision on which the
// keyed heap and the three-sort oracle disagree.
func FuzzHeuristicVerdict(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	for _, b := range prefixSeeds() {
		f.Add(b)
	}
	f.Fuzz(checkAgainstReference)
}

// TestVerdictIndependentOfInputOrder pins the contract that lets an engine
// hand out its candidates in any deterministic order: every policy orders
// by its own total order (ties by ID), so shuffling the slice changes
// nothing in the verdict, not even the order of the grants.
func TestVerdictIndependentOfInputOrder(t *testing.T) {
	names := []string{"fair-share", "proportional-share", "exclusive-fcfs"}
	for _, s := range AllHeuristics() {
		names = append(names, s.Name())
	}
	var scheds []Scheduler
	for _, name := range names {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s, NewTimeout(s, 7))
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		b := make([]byte, 2+6*rng.Intn(120))
		rng.Read(b)
		views, cap := decodeCase(b)
		shuffled := append([]*AppView(nil), views...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, s := range scheds {
			want := s.Allocate(fuzzNow, views, cap)
			if got := s.Allocate(fuzzNow, shuffled, cap); !sameVerdict(got, want) {
				t.Fatalf("%s over %d views, cap %+v: verdict depends on input order:\n got %v\nwant %v",
					s.Name(), len(views), cap, got, want)
			}
		}
	}
}
