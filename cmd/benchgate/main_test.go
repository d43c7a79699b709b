package main

import (
	"encoding/json"
	"io"
	"strings"
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

// TestParseBenchSuffix pins how a printed name finds its row: exactly
// first, then without the -N GOMAXPROCS suffix, which go test omits at
// GOMAXPROCS=1. A sub-benchmark whose own name ends in -N (apps-8) must
// keep it in both cases.
func TestParseBenchSuffix(t *testing.T) {
	known := map[string]bool{"BenchmarkAllocate/MaxSysEff/apps-8": true, "BenchmarkFig6aHeuristics": true}
	for _, c := range []struct {
		line, want string
	}{
		{"BenchmarkAllocate/MaxSysEff/apps-8 20000 207.0 ns/op 0 B/op 0 allocs/op", "BenchmarkAllocate/MaxSysEff/apps-8"},
		{"BenchmarkAllocate/MaxSysEff/apps-8-2 20000 207.0 ns/op 0 B/op 0 allocs/op", "BenchmarkAllocate/MaxSysEff/apps-8"},
		{"BenchmarkFig6aHeuristics 20 9350000 ns/op", "BenchmarkFig6aHeuristics"},
		{"BenchmarkFig6aHeuristics-2 20 9350000 ns/op", "BenchmarkFig6aHeuristics"},
		{"BenchmarkUnknown-4 20 100 ns/op", "BenchmarkUnknown"},
	} {
		got := parseBench(strings.NewReader(c.line+"\n"), io.Discard, known)
		if _, ok := got[c.want]; !ok || len(got) != 1 {
			t.Errorf("%q parsed as %v, want the row %q", c.line, got, c.want)
		}
	}
}
