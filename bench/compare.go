package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareDocuments prints, per workload and end-to-end metric, the two
// documents' values, their relative difference and PASS or FAIL against
// the metric's bound. Two sets of runs of the same code must agree within
// the benchmark's own bounds, or the bounds cannot resolve a regression.
func compareDocuments(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if !compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

func compareResults(a, b *document, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%-14s missing from the second document  FAIL\n", ra.Workload)
			ok = false
			continue
		}
		if ra.FailedOps+rb.FailedOps > 0 {
			fmt.Fprintf(w, "%-14s failed ops: %d and %d  FAIL\n", ra.Workload, ra.FailedOps, rb.FailedOps)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			diff := math.Abs(vb-va) / va
			verdict := "PASS"
			if !(diff <= d.bound) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %7.2f%% %5.0f%%  %s\n",
				ra.Workload, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok
}
