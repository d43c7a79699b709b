package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smokeSummary runs every workload at smoke size through the command's
// own entry point and returns the parsed last line of its output.
func smokeSummary(t *testing.T, trace string) summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-smoke", "-trace", trace}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var sum summary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
	}
	return sum
}

// TestSmoke runs each workload untraced and traced and requires every
// metric BENCHMARK.json names, with no failed operation.
func TestSmoke(t *testing.T) {
	t.Chdir("..") // the command runs from the root of a checkout

	sum := smokeSummary(t, "0")
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := sum.Metrics[w.name+"/"+d.name]
			if !ok || !(m.Value > 0) || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
	}

	sum = smokeSummary(t, "1")
	for _, w := range workloads {
		for _, d := range perLayer {
			if m, ok := sum.Metrics[w.name+"/"+d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
	}
	// The layers each workload exists to exercise must show up in it.
	positive := map[string][]string{
		"fig6-sweep":    {"workload.generate_us_per_mix", "core.allocate_share", "des.arm_drain_ns_per_timer", "sim.ns_per_event", "sim.health_ratio"},
		"pop100k":       {"sim.self_share", "sim.setup_snapshot_ms", "des.reschedule_ns", "runtime.alloc_bytes_per_op"},
		"daemon-cycle":  {"core.allocate_ns_per_call", "server.residence_us_p50", "client.wire_us_p50", "net.loopback_rtt_us_p50"},
		"daemon-fanout": {"server.writes_per_op", "server.codec_encode_ns.grant", "server.bytes_out_per_op"},
		"daemon-churn":  {"server.handshake_us_p50", "server.teardown_us_p50", "runtime.goroutines_peak"},
	}
	for w, names := range positive {
		for _, name := range names {
			if v := sum.Metrics[w+"/"+name].Value; !(v > 0) {
				t.Errorf("%s: %s = %g, want > 0", w, name, v)
			}
		}
	}
	if v := sum.Metrics["pop100k/core.allocate_share"].Value; v != 0 {
		t.Errorf("pop100k runs on the Saturating fast path, yet core.allocate_share = %g", v)
	}
	if v := sum.Metrics["daemon-fanout/server.pushes_per_op"].Value; v < 100 {
		t.Errorf("daemon-fanout pushes %g grants per cycle, want >= 100", v)
	}
	if v := sum.Metrics["daemon-cycle/server.skip_ratio"].Value; v >= 0.01 {
		t.Errorf("daemon-cycle skips %g of its rounds: the standing population no longer congests them", v)
	}
}

// TestWrapperDoesNotSteer pins that the timing wrapper leaves every
// engine decision as the bare policy takes it, for the eight Figure 6
// heuristics and for a Waker (core.Timeout).
func TestWrapperDoesNotSteer(t *testing.T) {
	policies := append(core.AllHeuristics(), core.NewTimeout(core.MaxSysEff(), 30))
	wcfg := workload.Fig6Config(workload.Fig6B, 7)
	apps, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bare := range policies {
		wrapped, counts := tracePolicy(bare)
		if _, bareWakes := bare.(core.Waker); bareWakes != (core.CapsOf(wrapped).Waker != nil) {
			t.Errorf("%s: wrapper changes whether the engine sees a Waker", bare.Name())
		}
		var results [2]*sim.Result
		for i, p := range []core.Scheduler{bare, wrapped} {
			results[i], err = sim.Run(sim.Config{Platform: wcfg.Platform.WithoutBB(), Scheduler: p, Apps: apps})
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		a, b := results[0], results[1]
		if a.Decisions != b.Decisions || a.Skipped != b.Skipped || a.SkippedMemo != b.SkippedMemo ||
			a.SkippedSaturating != b.SkippedSaturating || a.SkippedSingleFullGrant != b.SkippedSingleFullGrant {
			t.Errorf("%s: decisions/skips %d/%d (memo %d, saturating %d, single %d) became %d/%d (%d, %d, %d) under the wrapper",
				bare.Name(), a.Decisions, a.Skipped, a.SkippedMemo, a.SkippedSaturating, a.SkippedSingleFullGrant,
				b.Decisions, b.Skipped, b.SkippedMemo, b.SkippedSaturating, b.SkippedSingleFullGrant)
		}
		h := sha256.New()
		da, _ := cellDigest(h, nil, a)
		db, _ := cellDigest(h, nil, b)
		if da != db {
			t.Errorf("%s: result digest differs under the wrapper", bare.Name())
		}
		if got := counts.counts().calls; got != int64(b.Decisions) {
			t.Errorf("%s: wrapper counted %d policy calls, the engine %d decisions", bare.Name(), got, b.Decisions)
		}
	}
}

// TestBenchmarkJSON checks the contract file against the driver's own
// catalogue: same workloads, same metrics, names within the naming rule.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%q), the driver has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming rule or its why is too long (%d)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: %+v, the driver has %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %q (%q) breaks the naming rule", kind, m.Name, m.Unit)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s metric %q: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if bounded && m.Bound != nil && (*m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %g, the driver has %g", kind, m.Name, *m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
