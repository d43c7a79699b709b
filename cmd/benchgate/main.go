// Command benchgate compares `go test -bench` output on stdin against a
// committed baseline and fails when a benchmark regresses beyond the
// allowed factors. It is the CI smoke gate for the simulator hot path:
//
//	go test -run '^$' -bench BenchmarkFig6aHeuristics -benchmem -benchtime 5x . |
//	    go run ./cmd/benchgate -baseline BENCH_baseline.json -factor 2
//
// Two checks per benchmark:
//
//   - ns/op against factor × baseline: deliberately generous (shared CI
//     runners are noisy and their hardware differs from the recording
//     machine); it catches order-of-magnitude mistakes — an accidentally
//     quadratic rescan — not single-digit drift.
//   - allocs/op against baseline + alloc-slack: allocation counts are
//     machine-independent and deterministic, so this half of the gate is
//     exact-or-better — a measurement may beat the baseline freely but
//     may exceed it only by the small absolute slack (a few allocations
//     of scheduling jitter), never by a factor. A reintroduced per-event
//     or per-candidate allocation fails it on any hardware (requires
//     -benchmem output). A recorded 0 is a hard floor with no slack: a
//     zero-allocation path that allocates at all fails. A row without
//     allocs_per_op is not checked for allocations.
//
// Benchmarks present in only one of the two sides are ignored, so adding
// a benchmark does not require regenerating the baseline. Use -require to
// fail when expected benchmarks are missing from stdin (a crashed or
// misfiltered `go test` must not pass silently).
//
// -step names the CI step in every failure line, so a red gate in a
// multi-step job points at the step that produced it without reading the
// whole log. -json replaces the human table with one machine-readable
// report on stdout (the raw benchmark lines move to stderr), for CI
// annotation tooling.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// Baseline is the committed reference file (BENCH_baseline.json).
type Baseline struct {
	Recorded string `json:"recorded"`
	Go       string `json:"go,omitempty"`
	CPU      string `json:"cpu,omitempty"`
	// Benchmarks maps the benchmark name (without -N GOMAXPROCS suffix)
	// to its reference numbers.
	Benchmarks map[string]BenchRef `json:"benchmarks"`
	Notes      []string            `json:"notes,omitempty"`
}

// BenchRef is one benchmark's reference measurement. AllocsPerOp is nil
// when the row records no allocation count, which is not the same as a
// recorded 0.
type BenchRef struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// measurement is one parsed benchmark line.
type measurement struct {
	nsPerOp     float64
	allocsPerOp float64 // -1 when -benchmem was not passed
}

// result is one benchmark's verdict against the baseline.
type result struct {
	Name           string   `json:"name"`
	NsPerOp        float64  `json:"ns_per_op"`
	BaselineNs     float64  `json:"baseline_ns_per_op"`
	Ratio          float64  `json:"ratio"`
	AllocsPerOp    *float64 `json:"allocs_per_op,omitempty"`
	BaselineAllocs *float64 `json:"baseline_allocs_per_op,omitempty"`
	Status         string   `json:"status"`
}

var step string

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file")
	factor := flag.Float64("factor", 2, "fail when ns/op exceeds baseline by this factor")
	allocSlack := flag.Float64("alloc-slack", 8, "fail when allocs/op exceeds baseline by more than this many allocations")
	require := flag.String("require", "", "comma-separated benchmark names that must appear on stdin")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout (raw bench lines go to stderr)")
	flag.StringVar(&step, "step", "", "CI step name to include in failure output")
	version := flag.Bool("version", false, "print build metadata and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "benchgate")
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parsing %s: %v", *baselinePath, err)
	}

	// In JSON mode stdout must stay a single JSON document; the raw
	// benchmark passthrough moves to stderr.
	passthrough := io.Writer(os.Stdout)
	if *jsonOut {
		passthrough = os.Stderr
	}
	known := map[string]bool{}
	for name := range base.Benchmarks {
		known[name] = true
	}
	var required []string
	if *require != "" {
		required = strings.Split(*require, ",")
		for i, name := range required {
			required[i] = strings.TrimSpace(name)
			known[required[i]] = true
		}
	}
	measured := parseBench(os.Stdin, passthrough, known)
	if len(measured) == 0 {
		fatal("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	for _, name := range required {
		if _, ok := measured[name]; !ok {
			fatal("required benchmark %q missing from stdin (did go test fail?)", name)
		}
	}

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	var results []result
	failed := 0
	for _, name := range names {
		ref, ok := base.Benchmarks[name]
		if !ok || ref.NsPerOp <= 0 {
			continue
		}
		r, fails := check(name, measured[name], ref, *factor, *allocSlack)
		failed += fails
		results = append(results, r)
	}

	if *jsonOut {
		report := struct {
			Step     string   `json:"step,omitempty"`
			Baseline string   `json:"baseline"`
			Recorded string   `json:"recorded,omitempty"`
			Checked  int      `json:"checked"`
			Failed   int      `json:"failed"`
			Results  []result `json:"results"`
		}{
			Step: step, Baseline: *baselinePath, Recorded: base.Recorded,
			Checked: len(results), Failed: failed, Results: results,
		}
		if report.Results == nil {
			report.Results = []result{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal("%v", err)
		}
	} else {
		for _, r := range results {
			allocNote := ""
			if r.BaselineAllocs != nil {
				allocNote = fmt.Sprintf("  allocs %6.0f/%6.0f (%+.0f)",
					*r.AllocsPerOp, *r.BaselineAllocs, *r.AllocsPerOp-*r.BaselineAllocs)
			}
			fmt.Printf("%-40s %14.0f ns/op  baseline %14.0f  ratio %5.2f%s  %s\n",
				r.Name, r.NsPerOp, r.BaselineNs, r.Ratio, allocNote, r.Status)
		}
	}
	if len(results) == 0 {
		fatal("no measured benchmark matched the baseline (names: %v)", keys(base.Benchmarks))
	}
	if failed > 0 {
		fatal("%d check(s) regressed beyond ns/op %.1fx / allocs baseline+%.0f, or above a recorded 0 (baseline recorded %s on %s)",
			failed, *factor, *allocSlack, base.Recorded, base.CPU)
	}
}

// check compares one measurement against its baseline row and returns the
// verdict with the number of checks it failed (ns/op and allocs/op count
// separately). Allocations are checked when the row records a count and
// the measurement carries one: a recorded 0 admits no allocation at all,
// any other count admits slack more.
func check(name string, m measurement, ref BenchRef, factor, allocSlack float64) (result, int) {
	r := result{
		Name:       name,
		NsPerOp:    m.nsPerOp,
		BaselineNs: ref.NsPerOp,
		Ratio:      m.nsPerOp / ref.NsPerOp,
		Status:     "ok",
	}
	fails := 0
	if r.Ratio > factor {
		r.Status = "FAIL(ns/op)"
		fails++
	}
	if ref.AllocsPerOp != nil && m.allocsPerOp >= 0 {
		r.AllocsPerOp, r.BaselineAllocs = &m.allocsPerOp, ref.AllocsPerOp
		limit := *ref.AllocsPerOp
		if limit > 0 {
			limit += allocSlack
		}
		if m.allocsPerOp > limit {
			r.Status = "FAIL(allocs/op)"
			fails++
		}
	}
	return r, fails
}

// parseBench extracts per-benchmark measurements from `go test -bench`
// output, keyed by row name. A line whose name is a known row (baseline
// or required) is that row; otherwise a trailing -N is taken for the
// GOMAXPROCS suffix and stripped, so baselines transfer between machines
// with different GOMAXPROCS. The exact match comes first because go test
// prints no suffix at GOMAXPROCS=1, where a sub-benchmark named apps-8
// must stay apps-8.
func parseBench(r io.Reader, passthrough io.Writer, known map[string]bool) map[string]measurement {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(passthrough, line) // keep the raw output in the CI log
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark<Name>[-N] <iters> <ns> ns/op [... <allocs> allocs/op]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		m := measurement{nsPerOp: ns, allocsPerOp: -1}
		for i := 4; i+1 < len(fields); i += 2 {
			if fields[i+1] == "allocs/op" {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					m.allocsPerOp = v
				}
			}
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 && !known[name] {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = m
	}
	return out
}

func keys(m map[string]BenchRef) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fatal(format string, args ...any) {
	prefix := "benchgate"
	if step != "" {
		prefix = "benchgate[" + step + "]"
	}
	fmt.Fprintf(os.Stderr, prefix+": "+format+"\n", args...)
	os.Exit(1)
}
