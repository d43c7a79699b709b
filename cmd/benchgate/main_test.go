package main

import (
	"encoding/json"
	"testing"
)

// TestCheckAllocs pins the allocation half of the gate: a row without a
// count is not checked, a recorded 0 is a floor with no slack, and any
// other count admits the slack.
func TestCheckAllocs(t *testing.T) {
	var base Baseline
	if err := json.Unmarshal([]byte(`{"benchmarks": {
		"Unbaselined": {"ns_per_op": 100},
		"Zero": {"ns_per_op": 100, "allocs_per_op": 0},
		"Some": {"ns_per_op": 100, "allocs_per_op": 10}}}`), &base); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		allocs float64
		fails  int
	}{
		{"Unbaselined", 1000, 0},
		{"Zero", 0, 0},
		{"Zero", 1, 1},
		{"Zero", -1, 0}, // no -benchmem: nothing to check
		{"Some", 18, 0},
		{"Some", 19, 1},
	} {
		r, fails := check(c.name, measurement{nsPerOp: 100, allocsPerOp: c.allocs}, base.Benchmarks[c.name], 2, 8)
		if fails != c.fails {
			t.Errorf("%s at %g allocs/op: %d failed checks (%s), want %d", c.name, c.allocs, fails, r.Status, c.fails)
		}
	}
	if r, fails := check("Zero", measurement{nsPerOp: 300, allocsPerOp: 1}, base.Benchmarks["Zero"], 2, 8); fails != 2 {
		t.Errorf("3x slower and allocating: %d failed checks (%s), want 2", fails, r.Status)
	}
}
