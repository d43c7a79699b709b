package core

import (
	"bytes"
	"math"
	"testing"
)

// The cases below sit on the edges of AllocateInto's linear prefix: the
// prefixLen most favored candidates of a group are selected in one pass
// and served in order, the rest go to a heap only while capacity is left,
// and the whole group goes to the heap when capacity exceeds prefixLen of
// the largest caps.

// prefixViews builds one candidate per entry of keys, with nodes[i] nodes
// (cycling through nodes) and every heuristic's key ascending in keys[i]:
// LastIOEnd is keys[i], and at fuzzNow the ratio is (1+2·keys[i])/100 and
// the weighted efficiency Nodes·(1+keys[i])/100. IDs are unique and not
// monotonic in i, and the first `started` candidates have Started set.
// With large, the least favored candidate (largest key, then largest ID)
// has 64 nodes: the largest cap, which keeps the prefix in play at
// capacities above prefixLen of the other caps.
func prefixViews(keys, nodes []int, started int, large bool) []*AppView {
	views := make([]*AppView, len(keys))
	last := 0
	for i, k := range keys {
		views[i] = &AppView{
			ID:            (i*37 + 11) % 101,
			Nodes:         nodes[i%len(nodes)],
			Phase:         Pending,
			RemVolume:     1,
			Started:       i < started,
			LastIOEnd:     float64(k),
			CreditedWork:  float64(1 + k),
			CreditedIdeal: float64(1 + 2*k),
		}
		if k > keys[last] || k == keys[last] && views[i].ID > views[last].ID {
			last = i
		}
	}
	if large {
		views[last].Nodes = 64
	}
	return views
}

func TestPrefixBoundaryMatchesReference(t *testing.T) {
	// Keys descending by position, so every entry of the pass evicts one
	// from the prefix; a shuffle with ties; all keys equal; and equal keys
	// on both sides of the prefixLen-th position, so IDs decide there.
	desc := []int{19, 18, 17, 16, 15, 14, 13, 12, 11, 10}
	shuffled := []int{7, 3, 9, 3, 0, 3, 5, 3, 8, 1, 6, 2}
	tied := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	straddle := []int{9, 1, 5, 5, 0, 5, 5, 8, 5, 2}
	eight := []int{8}
	cases := []struct {
		name    string
		keys    []int
		nodes   []int
		started int
		large   bool
		total   float64
		nodeBW  float64
	}{
		{"n<m", desc[:3], eight, 0, false, 12, 1},
		{"n<m all fit", desc[:3], eight, 0, false, 100, 1},
		{"n=m", desc[:4], eight, 0, false, 20, 1},
		{"n=m exactly served", desc[:4], eight, 0, false, 32, 1},
		{"n=m+1", desc[:5], eight, 0, true, 36, 1},
		{"stops at m grants", desc, eight, 0, true, 32, 1},
		{"stops at m+1 grants (first pop)", desc, eight, 0, true, 36, 1},
		{"heap after prefix to the end", desc, eight, 0, true, 200, 1},
		{"shuffled with ties", shuffled, eight, 0, true, 28, 1},
		{"shuffled, first pop", shuffled, eight, 0, true, 44, 1},
		{"all keys tie", tied, eight, 0, true, 28, 1},
		{"all keys tie, first pop", tied, eight, 0, true, 36, 1},
		{"ties straddle m", straddle, eight, 0, true, 28, 1},
		{"ties straddle m, first pop", straddle, eight, 0, true, 44, 1},
		{"started < m", desc, eight, 2, true, 36, 1},
		{"started < m, into the rest's heap", desc, eight, 2, true, 60, 1},
		{"started > m", desc, eight, 6, true, 28, 1},
		{"started > m, first pop", desc, eight, 6, true, 44, 1},
		{"started > m, into the rest", desc, eight, 6, true, 60, 1},
		{"capacity m·maxCap", desc, eight, 0, false, 32, 1},
		{"capacity below m·maxCap", desc, eight, 0, false, math.Nextafter(32, 0), 1},
		{"capacity above m·maxCap", desc, eight, 0, false, math.Nextafter(32, math.Inf(1)), 1},
		{"capacity m·maxCap, inexact b", desc, eight, 0, false, 4 * 8 * 0.0125, 0.0125},
		{"capacity below m·maxCap, inexact b", desc, eight, 0, false, math.Nextafter(4*8*0.0125, 0), 0.0125},
		{"capacity above m·maxCap, inexact b", desc, eight, 0, false, math.Nextafter(4*8*0.0125, 1), 0.0125},
		{"zero-node views in the prefix", desc, []int{0, 8, 0}, 0, true, 20, 1},
		{"zero-node views only", desc, []int{0}, 0, false, 20, 1},
		{"zero capacity", desc, eight, 0, true, 0, 1},
		{"negative capacity", desc, eight, 0, true, -1, 1},
		{"zero node bandwidth", desc, eight, 0, true, 20, 0},
		{"negative node bandwidth", desc, eight, 0, true, 20, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			views := prefixViews(c.keys, c.nodes, c.started, c.large)
			checkVerdicts(t, views, Capacity{TotalBW: c.total, NodeBW: c.nodeBW})
		})
	}
}

// TestPrefixNaNCapacityGrantsNothing pins the NaN capacity, which the
// oracle's `avail <= 0` test does not stop: the walk's `avail > 0` does,
// so no heuristic grants anything.
func TestPrefixNaNCapacityGrantsNothing(t *testing.T) {
	views := prefixViews([]int{5, 3, 9, 1, 7, 2}, []int{8}, 2, true)
	var scr Scratch
	for _, s := range AllHeuristics() {
		h := s.(*Heuristic)
		if g := h.AllocateInto(&scr, fuzzNow, views, Capacity{TotalBW: math.NaN(), NodeBW: 1}); len(g) != 0 {
			t.Errorf("%s with NaN capacity granted %v", h.Name(), g)
		}
	}
}

// prefixSeeds are FuzzHeuristicVerdict inputs (decodeCase's encoding) at
// the prefix's edges: n around prefixLen, walks that stop at or just past
// prefixLen grants, tied keys, started groups on both sides of prefixLen
// and zero-node views.
func prefixSeeds() [][]byte {
	// view is one decoded candidate: fuzzNodes[nodes], fuzzLastEnd[key]
	// and, for the efficiency keys, fuzzWork[key] over fuzzIdeal[7-key].
	view := func(nodes, key byte, started bool) []byte {
		b := []byte{nodes, key, key, 7 - key, 0, 0}
		if started {
			b[5] |= 8
		}
		return b
	}
	seed := func(capMode byte, n int, nodes func(i int) byte, started int) []byte {
		b := []byte{0, capMode} // NodeBW 1
		for i := 0; i < n; i++ {
			b = append(b, view(nodes(i), byte(7-i%8), i < started)...)
		}
		return b
	}
	four := func(int) byte { return 4 } // 4 nodes
	oneLarge := func(i int) byte {      // 4 nodes, the least favored view 64
		if i == 0 {
			return 7
		}
		return 4
	}
	zeros := func(i int) byte { return byte(4 * (i % 2)) } // 0 or 4 nodes
	var seeds [][]byte
	for _, n := range []int{3, 4, 5} {
		seeds = append(seeds, seed(3, n, four, 0), seed(5, n, four, 0))
	}
	return append(seeds,
		seed(6, 12, four, 0),     // capacity demand/3: exactly four caps
		seed(6, 12, oneLarge, 0), // 108/3 = 36: the prefix, then pops
		append([]byte{0, 3}, bytes.Repeat(view(4, 2, false), 10)...), // every key ties
		seed(6, 12, oneLarge, 2),
		seed(6, 12, oneLarge, 6),
		seed(3, 12, zeros, 0),
		seed(6, 12, zeros, 0),
	)
}
