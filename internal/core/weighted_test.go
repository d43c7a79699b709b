package core

import (
	"math"
	"testing"
	"testing/quick"
)

// weightedFairShare is weightedFairShareInto into fresh slices: the
// allocation ProportionalShare makes, as a plain function of caps and
// weights.
func weightedFairShare(caps, weights []float64, total float64) []float64 {
	out := make([]float64, len(caps))
	weightedFairShareInto(out, make([]int, len(caps)), caps, weights, total)
	return out
}

func TestWeightedFairShare(t *testing.T) {
	cases := []struct {
		caps, weights []float64
		total         float64
		want          []float64
	}{
		// Equal weights reduce to max-min.
		{[]float64{10, 10}, []float64{1, 1}, 10, []float64{5, 5}},
		// Proportional split within caps.
		{[]float64{10, 10}, []float64{3, 1}, 8, []float64{6, 2}},
		// A capped application frees its excess for the others.
		{[]float64{2, 10}, []float64{1, 1}, 10, []float64{2, 8}},
		// Weight zero gets nothing.
		{[]float64{10, 10}, []float64{0, 1}, 10, []float64{0, 10}},
		{nil, nil, 10, nil},
	}
	for i, c := range cases {
		got := weightedFairShare(c.caps, c.weights, c.total)
		if len(got) != len(c.want) {
			t.Errorf("case %d: len %d, want %d", i, len(got), len(c.want))
			continue
		}
		for j := range got {
			if math.Abs(got[j]-c.want[j]) > 1e-9 {
				t.Errorf("case %d: got %v, want %v", i, got, c.want)
				break
			}
		}
	}
}

func TestWeightedFairShareMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for mismatched lengths")
		}
	}()
	weightedFairShare([]float64{1, 2}, []float64{1}, 10)
}

// Properties: shares respect caps and total; full use when demand allows;
// equal weights agree with MaxMinFairShare.
func TestWeightedFairShareQuick(t *testing.T) {
	f := func(raw []uint8, totRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		caps := make([]float64, len(raw))
		weights := make([]float64, len(raw))
		var demand float64
		for i, r := range raw {
			caps[i] = float64(r%40) + 0.5
			weights[i] = float64(r>>4) + 1
			demand += caps[i]
		}
		total := float64(totRaw%500) + 1
		out := weightedFairShare(caps, weights, total)
		var sum float64
		for i, v := range out {
			if v < -1e-9 || v > caps[i]+1e-9 {
				return false
			}
			sum += v
		}
		if sum > total+1e-6 {
			return false
		}
		if math.Abs(sum-math.Min(total, demand)) > 1e-6 {
			return false
		}
		// Equal weights must agree with the unweighted version.
		ones := make([]float64, len(caps))
		for i := range ones {
			ones[i] = 1
		}
		w := weightedFairShare(caps, ones, total)
		m := MaxMinFairShare(caps, total)
		for i := range w {
			if math.Abs(w[i]-m[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProportionalShareFavorsBigApps(t *testing.T) {
	cap := Capacity{TotalBW: 12, NodeBW: 1}
	big := view(0, 30)
	small := view(1, 10)
	grants := ProportionalShare{}.Allocate(0, []*AppView{big, small}, cap)
	byID := map[int]float64{}
	for _, g := range grants {
		byID[g.AppID] = g.BW
	}
	if math.Abs(byID[0]-9) > 1e-9 || math.Abs(byID[1]-3) > 1e-9 {
		t.Errorf("grants = %v, want 9/3 proportional split", byID)
	}
	if s, err := ByName("proportional-share"); err != nil || s.Name() != "proportional-share" {
		t.Errorf("ByName: %v, %v", s, err)
	}
}
