package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/metrics"
)

// defaultSeed is the seed whose result digests are pinned in
// expected.json.
const defaultSeed = 1

// metricDef names one metric of the benchmark. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md maps each to its meaning per workload
// (ops_per_s is cells/s on fig6-sweep, cycles/s on daemon-cycle, ...).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_us_p50", "us", "lower", 0.25},
	{"op_us_tail", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer is what single layers do, measured in the traced run. A value
// of 0 means the workload does not exercise that layer (server.* on a
// simulator workload, sim.* on a daemon workload).
var perLayer = []metricDef{
	{"workload.generate_us_per_mix", "us", "lower", 0},

	{"core.allocate_calls", "count", "lower", 0},
	{"core.allocate_ns_per_call", "ns", "lower", 0},
	{"core.candidates_per_call", "count", "lower", 0},
	{"core.allocate_share", "ratio", "lower", 0},
	{"core.probe_ns.n16", "ns", "lower", 0},
	{"core.probe_ns.n1024", "ns", "lower", 0},

	{"des.arm_drain_ns_per_timer", "ns", "lower", 0},
	{"des.reschedule_ns", "ns", "lower", 0},

	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.decisions", "count", "lower", 0},
	{"sim.skipped", "count", "higher", 0},
	{"sim.skip_ratio", "ratio", "higher", 0},
	{"sim.self_share", "ratio", "lower", 0},
	{"sim.setup_snapshot_ms", "ms", "lower", 0},
	{"sim.dectrace_ratio", "ratio", "lower", 0},
	{"sim.telemetry_ratio", "ratio", "lower", 0},
	{"sim.health_ratio", "ratio", "lower", 0},

	{"server.rounds_per_op", "count", "lower", 0},
	{"server.decisions_per_op", "count", "lower", 0},
	{"server.skip_ratio", "ratio", "higher", 0},
	{"server.pushes_per_op", "count", "lower", 0},
	{"server.residence_us_p50", "us", "lower", 0},
	{"server.residence_us_p99", "us", "lower", 0},
	{"server.write_us_p50", "us", "lower", 0},
	{"server.writes_per_op", "count", "lower", 0},
	{"server.pushes_per_write", "count", "higher", 0},
	{"server.bytes_in_per_op", "B", "lower", 0},
	{"server.bytes_out_per_op", "B", "lower", 0},
	{"server.handshake_us_p50", "us", "lower", 0},
	{"server.teardown_us_p50", "us", "lower", 0},
	{"server.codec_encode_ns.grant", "ns", "lower", 0},
	{"server.codec_encode_ns.request", "ns", "lower", 0},
	{"server.codec_encode_ns.hello", "ns", "lower", 0},
	{"server.codec_decode_ns.grant", "ns", "lower", 0},
	{"server.codec_decode_ns.request", "ns", "lower", 0},
	{"server.codec_decode_ns.hello", "ns", "lower", 0},

	{"client.wire_us_p50", "us", "lower", 0},
	{"client.op_us_p99", "us", "lower", 0},
	{"net.loopback_rtt_us_p50", "us", "lower", 0},

	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// reported returns the metrics the summary line carries: the end-to-end
// set of an untraced run, the per-layer set of a traced one.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func findMetric(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i := range defs {
			if defs[i].name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload's outcome.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Ops       int    `json:"ops"`
	FailedOps int    `json:"failed_ops"`
	// Failures holds the first few failure messages.
	Failures []string `json:"failures,omitempty"`
	// Digest is the SHA-256 over every cell record of a simulator pass.
	Digest string `json:"digest,omitempty"`
	// TailPercentile is the percentile op_us_tail reports: the highest
	// one that repeats between runs of the same code on a shared machine.
	TailPercentile float64           `json:"tail_percentile"`
	Metrics        map[string]metric `json:"metrics"`
	TraceFile      string            `json:"trace_file,omitempty"`
}

func newResult(name string, o options, tailPercentile float64) *result {
	return &result{Workload: name, Traced: o.trace, TailPercentile: tailPercentile, Metrics: map[string]metric{}}
}

// set records a metric; the unit comes from the catalogue, so a name the
// catalogue lacks is a bug in the benchmark itself.
func (r *result) set(name string, value float64, samples int) {
	d := findMetric(name)
	if d == nil {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = metric{Value: value, Unit: d.unit, Samples: samples}
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.FailedOps++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills the metrics this workload's layers did not produce with 0,
// so a run always carries its whole set.
func (r *result) finish(o options) {
	for _, d := range reported(o.trace) {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0, 0)
		}
	}
}

// --- order statistics -------------------------------------------------------

// percentile is the p-th percentile (0..100) of v, by linear
// interpolation between closest ranks; v must not be empty.
func percentile(v []float64, p float64) float64 { return metrics.Sample(v).Percentile(p) }

func median(v []float64) float64 { return percentile(v, 50) }

// --- the timed window -------------------------------------------------------

// runtimeProbe brackets a timed window with the Go runtime's own
// counters. ReadMemStats stops the world, so it runs only at the two
// boundaries, never inside the window.
type runtimeProbe struct {
	mem0    runtime.MemStats
	cpu0    [2]float64
	peak    int
	stopTop chan struct{}
	topDone chan struct{}
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() (v [2]float64) {
	s := []rtmetrics.Sample{{Name: cpuSamples[0]}, {Name: cpuSamples[1]}}
	rtmetrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// startRuntimeProbe opens the window. watchGoroutines additionally samples
// the goroutine count every 20 ms (traced runs only: the untraced window
// takes the boundary counts, so no extra goroutine runs inside it).
func startRuntimeProbe(watchGoroutines bool) *runtimeProbe {
	p := &runtimeProbe{peak: runtime.NumGoroutine()}
	if watchGoroutines {
		p.stopTop, p.topDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(p.topDone)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-p.stopTop:
					return
				case <-tick.C:
					p.peak = max(p.peak, runtime.NumGoroutine())
				}
			}
		}()
	}
	p.cpu0 = readCPU()
	runtime.ReadMemStats(&p.mem0)
	return p
}

// stop closes the window and records the runtime layer's metrics, plus
// the end-to-end allocation volume, per operation.
func (p *runtimeProbe) stop(r *result, ops int) {
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	cpu1 := readCPU()
	if p.stopTop != nil {
		close(p.stopTop)
		<-p.topDone
	}
	p.peak = max(p.peak, runtime.NumGoroutine())
	n := float64(max(ops, 1))
	bytes := float64(mem1.TotalAlloc - p.mem0.TotalAlloc)
	r.set("alloc_kb_per_op", bytes/1024/n, ops)
	r.set("runtime.allocs_per_op", float64(mem1.Mallocs-p.mem0.Mallocs)/n, ops)
	r.set("runtime.alloc_bytes_per_op", bytes/n, ops)
	r.set("runtime.gc_cycles", float64(mem1.NumGC-p.mem0.NumGC), 1)
	r.set("runtime.gc_pause_ms_total", float64(mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, 1)
	share := 0.0
	if total := cpu1[1] - p.cpu0[1]; total > 0 {
		share = (cpu1[0] - p.cpu0[0]) / total
	}
	r.set("runtime.gc_cpu_share", share, 1)
	r.set("runtime.goroutines_peak", float64(p.peak), 1)
}

// slice is a stretch of a timed window measured on its own: a pass of a
// simulator workload, a second of a daemon workload.
type slice struct {
	seconds float64
	us      []float64 // latency of each operation that completed in it
}

// reportSlices records the three timing metrics, each as the median over
// the slices of the window, so a disturbance that hits one slice (another
// tenant of the machine, a long GC) does not move the result.
func (r *result) reportSlices(slices []slice) {
	var rate, p50, tail []float64
	for _, sl := range slices {
		rate = append(rate, float64(len(sl.us))/sl.seconds)
		if len(sl.us) > 0 {
			p50 = append(p50, percentile(sl.us, 50))
			tail = append(tail, percentile(sl.us, r.TailPercentile))
		}
	}
	r.set("ops_per_s", median(rate), len(slices))
	r.set("op_us_p50", median(p50), len(slices))
	r.set("op_us_tail", median(tail), len(slices))
}
