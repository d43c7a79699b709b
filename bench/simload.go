package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dectrace"
	"repro/internal/health"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// simSuite is a simulator workload: a pass is cells operations, each one
// whole sim.Run whose result must repeat bit for bit. Simulated
// statistics are not speed metrics; the suite only checks them.
type simSuite struct {
	name  string
	cells int
	// tail is the percentile op_us_tail reports for this suite.
	tail float64
	// minPasses is how many whole passes a timed window holds at least.
	minPasses int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// build prepares everything that is not part of a timed operation
	// (for pop100k, the population) and returns config, which yields the
	// i-th cell's run configuration under the given policy. Work done
	// inside config is timed with the cell (for fig6-sweep,
	// workload.Generate).
	build func(o options) (config func(i int, rec *recorder) (sim.Config, error), policies []core.Scheduler, err error)
	// observability, when set, adds the suite's observability-on ratios
	// to a traced run.
	observability func(o options, sr *simRunner, res *result) error
}

// expectedDigests pins the result digest of each simulator workload at
// the default seed, per size.
//
//go:embed expected.json
var expectedJSON []byte

type expectedDigests struct {
	Seed  int64             `json:"seed"`
	Full  map[string]string `json:"full"`
	Smoke map[string]string `json:"smoke"`
}

func expectedDigest(name string, o options) (string, error) {
	var e expectedDigests
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	if o.seed != e.Seed {
		return "", nil
	}
	if o.smoke {
		return e.Smoke[name], nil
	}
	return e.Full[name], nil
}

// cellDigest hashes the record a cell must reproduce: the two objectives,
// the engine's event and decision counts, and every application's finish
// time, all as exact bits.
func cellDigest(h hash.Hash, buf []byte, res *sim.Result) ([sha256.Size]byte, []byte) {
	h.Reset()
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Summary.SysEfficiency))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Summary.Dilation))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Events))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Decisions))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Skipped))
	for i := range res.Apps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Apps[i].Finish))
	}
	h.Write(buf)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d, buf
}

// checkInvariants holds for any seed: nobody beats the congestion-free
// execution, and everybody finishes.
func checkInvariants(cfg sim.Config, res *sim.Result) error {
	if !(res.Summary.Dilation >= 1) {
		return fmt.Errorf("dilation %g < 1", res.Summary.Dilation)
	}
	if !(res.Summary.SysEfficiency <= res.Summary.UpperLimit*(1+1e-9)) {
		return fmt.Errorf("SysEfficiency %g above its upper limit %g", res.Summary.SysEfficiency, res.Summary.UpperLimit)
	}
	if len(res.Apps) != len(cfg.Apps) {
		return fmt.Errorf("%d of %d applications reported", len(res.Apps), len(cfg.Apps))
	}
	for i := range res.Apps {
		if f := res.Apps[i].Finish; !(f >= res.Apps[i].Release) || math.IsInf(f, 0) {
			return fmt.Errorf("application %d did not finish (finish %g)", res.Apps[i].ID, f)
		}
	}
	return nil
}

// simRunner executes passes of one suite.
type simRunner struct {
	suite    *simSuite
	config   func(i int, rec *recorder) (sim.Config, error)
	policies []core.Scheduler
	hash     hash.Hash
	buf      []byte
	// reference holds the warm-up pass's cell digests; every later pass
	// must reproduce them.
	reference [][sha256.Size]byte
	// minPasses is how many whole passes a timed window holds at least.
	minPasses int

	// Set for the traced window only: the span recorder, and the policy
	// wrappers with the schedulers the engine gets in place of policies
	// (aligned by index).
	rec      *recorder
	traced   []core.Scheduler
	wrappers []*tracedPolicy
}

// passStats is what one pass adds up.
type passStats struct {
	cellUS    []float64
	events    int64
	decisions int64
	skipped   int64
	simRunNS  int64
	digest    string
}

// pass runs every cell once. With reference set, a cell whose digest
// differs or whose invariants fail is a failed operation; without, the
// pass records the reference.
func (sr *simRunner) pass(res *result, st *passStats) error {
	rec := sr.rec
	record := sr.reference == nil
	digests := make([][sha256.Size]byte, 0, sr.suite.cells)
	rec.begin(spPass, 0)
	for i := 0; i < sr.suite.cells; i++ {
		start := time.Now()
		rec.begin(spCell, int64(i))
		cfg, err := sr.config(i, rec)
		if err != nil {
			return err
		}
		rec.begin(spSimRun, int64(i))
		if sr.traced != nil {
			// The wrapper's exemplar spans hang under this sim.Run span.
			k := i % len(sr.traced)
			cfg.Scheduler = sr.traced[k]
			sr.wrappers[k].op, sr.wrappers[k].parent = int64(i), rec.currentIndex()
		}
		out, err := sim.Run(cfg)
		st.simRunNS += rec.end()
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		var d [sha256.Size]byte
		d, sr.buf = cellDigest(sr.hash, sr.buf, out)
		if err := checkInvariants(cfg, out); err != nil {
			res.fail("cell %d: %v", i, err)
		} else if !record && d != sr.reference[i] {
			res.fail("cell %d: result differs from the warm-up pass", i)
		}
		digests = append(digests, d)
		rec.end()
		st.cellUS = append(st.cellUS, float64(time.Since(start).Nanoseconds())/1e3)
		st.events += int64(out.Events)
		st.decisions += int64(out.Decisions)
		st.skipped += int64(out.Skipped)
	}
	rec.end()
	all := sha256.New()
	for i := range digests {
		all.Write(digests[i][:])
	}
	st.digest = hex.EncodeToString(all.Sum(nil))
	if record {
		sr.reference = digests
	}
	return nil
}

// window runs whole passes until seconds have passed (at least
// minPasses) and returns one slice per pass, or per runsPerSlice passes of
// a single operation.
func (sr *simRunner) window(seconds float64, res *result, st *passStats) ([]slice, error) {
	var passes []slice
	start := time.Now()
	for len(passes) < sr.minPasses || time.Since(start).Seconds() < seconds {
		t0, done := time.Now(), len(st.cellUS)
		if err := sr.pass(res, st); err != nil {
			return nil, err
		}
		passes = append(passes, slice{time.Since(t0).Seconds(), st.cellUS[done:]})
		res.Ops += sr.suite.cells
	}
	if sr.suite.cells == 1 {
		// A pass of one operation has no percentiles of its own.
		return groupSlices(passes, runsPerSlice), nil
	}
	return passes, nil
}

// runsPerSlice is how many consecutive single-operation passes make one
// slice (pop100k: about a second and a half).
const runsPerSlice = 10

// groupSlices merges every k consecutive slices into one; a shorter rest
// joins the last group.
func groupSlices(passes []slice, k int) []slice {
	groups := make([]slice, max(len(passes)/k, 1))
	for i, p := range passes {
		g := &groups[min(i/k, len(groups)-1)]
		g.seconds += p.seconds
		g.us = append(g.us, p.us...)
	}
	return groups
}

// secondsPerOp returns the median over a window's slices of the time one
// operation took.
func secondsPerOp(passes []slice) float64 {
	var s []float64
	for _, p := range passes {
		s = append(s, p.seconds/float64(len(p.us)))
	}
	return median(s)
}

func (s *simSuite) run(o options) (*result, error) {
	res := newResult(s.name, o, s.tail)
	setups, minPasses := s.setups, s.minPasses
	if o.smoke {
		setups, minPasses = 1, 1
	}

	// Set-up: build the inputs and run the warm-up pass that every timed
	// pass is compared with. Repeated, so setup_s is a median too.
	var sr *simRunner
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		config, policies, err := s.build(o)
		if err != nil {
			return nil, err
		}
		sr = &simRunner{suite: s, config: config, policies: policies, hash: sha256.New(), minPasses: minPasses}
		var warm passStats
		if err := sr.pass(res, &warm); err != nil {
			return nil, err
		}
		res.Digest = warm.digest
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setupS), len(setupS))
	want, err := expectedDigest(s.name, o)
	if err != nil {
		return nil, err
	}
	if want != "" && res.Digest != want {
		res.fail("result digest %s differs from expected.json (%s)", res.Digest, want)
	}

	if !o.trace {
		var st passStats
		probe := startRuntimeProbe(false)
		passes, err := sr.window(o.seconds, res, &st)
		if err != nil {
			return nil, err
		}
		probe.stop(res, len(st.cellUS))
		res.reportSlices(passes)
		return res, nil
	}
	return res, s.traced(o, sr, res)
}

// traced measures a reference window with bare policies, then the same
// passes with the policy wrappers and the span recorder attached, and
// derives the per-layer metrics from the second.
func (s *simSuite) traced(o options, sr *simRunner, res *result) error {
	var plain passStats
	plainPasses, err := sr.window(o.seconds/3, res, &plain)
	if err != nil {
		return err
	}

	rec := newRecorder()
	sr.rec = rec
	sr.traced = make([]core.Scheduler, len(sr.policies))
	sr.wrappers = make([]*tracedPolicy, len(sr.policies))
	for i, p := range sr.policies {
		sr.traced[i], sr.wrappers[i] = tracePolicy(p)
	}
	var st passStats
	probe := startRuntimeProbe(true)
	passes, err := sr.window(o.seconds*2/3, res, &st)
	if err != nil {
		return err
	}
	ops := len(st.cellUS)
	probe.stop(res, ops)

	windowNS := float64(rec.total[spPass])
	var pc policyCounts
	for _, w := range sr.wrappers {
		c := w.counts()
		pc.calls, pc.ns, pc.apps = pc.calls+c.calls, pc.ns+c.ns, pc.apps+c.apps
		rec.spans = append(rec.spans, w.exemplars...)
		rec.count[spPolicy] += c.calls
		rec.total[spPolicy] += c.ns
		rec.self[spPolicy] += c.ns
	}
	rec.self[spSimRun] -= pc.ns // policy calls are sim.Run's children

	if n := rec.count[spGenerate]; n > 0 {
		res.set("workload.generate_us_per_mix", float64(rec.total[spGenerate])/float64(n)/1e3, int(n))
	}
	res.set("core.allocate_calls", float64(pc.calls)/float64(ops), ops)
	if pc.calls > 0 {
		res.set("core.allocate_ns_per_call", float64(pc.ns)/float64(pc.calls), int(pc.calls))
		res.set("core.candidates_per_call", float64(pc.apps)/float64(pc.calls), int(pc.calls))
	}
	coreShare := float64(pc.ns) / windowNS
	res.set("core.allocate_share", coreShare, int(rec.count[spPass]))
	res.set("core.probe_ns.n16", probeCore(o, 16), 1)
	res.set("core.probe_ns.n1024", probeCore(o, 1024), 1)

	// One pass's runs again, for the replays. Every run arms one release
	// timer per application and one compute completion per instance.
	runs := make([]sim.Config, s.cells)
	timers := 0
	for i := range runs {
		if runs[i], err = sr.config(i, nil); err != nil {
			return err
		}
		for _, a := range runs[i].Apps {
			timers += 1 + len(a.Instances)
		}
	}
	armDrain, reschedule := probeDes(o, runs)
	res.set("des.arm_drain_ns_per_timer", armDrain, 1)
	res.set("des.reschedule_ns", reschedule, 1)
	desShare := armDrain * float64(timers) * float64(rec.count[spPass]) / windowNS

	simRunS := float64(st.simRunNS) / 1e9
	res.set("sim.events_per_s", float64(st.events)/simRunS, ops)
	res.set("sim.ns_per_event", float64(st.simRunNS)/float64(st.events), ops)
	res.set("sim.decisions", float64(st.decisions)/float64(ops), ops)
	res.set("sim.skipped", float64(st.skipped)/float64(ops), ops)
	res.set("sim.skip_ratio", float64(st.skipped)/float64(max(st.decisions+st.skipped, 1)), ops)
	res.set("sim.self_share", float64(st.simRunNS)/windowNS-coreShare-desShare, int(rec.count[spPass]))
	snapMS, err := setupSnapshotMS(runs)
	if err != nil {
		return err
	}
	res.set("sim.setup_snapshot_ms", snapMS, s.cells)
	if s.observability != nil {
		if err := s.observability(o, sr, res); err != nil {
			return err
		}
	}

	res.set("trace.overhead_pct", 100*(1-secondsPerOp(plainPasses)/secondsPerOp(passes)), int(rec.count[spPass]))
	res.set("trace.unattributed_share", float64(rec.self[spPass]+rec.self[spCell])/windowNS, int(rec.count[spPass]))
	res.TraceFile, err = rec.write(s.name, o.seed)
	return err
}

// setupSnapshotMS is the median over a pass's runs of
// sim.RunToSnapshot(cfg, 0): construction, the t = 0 releases and the
// capture — an upper bound on what sim.Run spends before its first event.
func setupSnapshotMS(runs []sim.Config) (float64, error) {
	ms := make([]float64, 0, len(runs))
	for _, cfg := range runs {
		t0 := time.Now()
		if _, err := sim.RunToSnapshot(cfg, 0); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// --- fig6-sweep -------------------------------------------------------------

var fig6Panels = []workload.Fig6Kind{workload.Fig6A, workload.Fig6B, workload.Fig6C}

// fig6Seeds is the number of mixes per panel in a pass.
func fig6Seeds(o options) int {
	if o.smoke {
		return 1
	}
	return 10
}

// fig6Cell returns the panel and the mix seed of cell i: panels outermost,
// then mixes, then the eight heuristics.
func fig6Cell(o options, i, heuristics int) (workload.Fig6Kind, int64) {
	mix := i / heuristics
	return fig6Panels[mix/fig6Seeds(o)], o.seed + int64(mix%fig6Seeds(o))
}

func runFig6Sweep(o options) (*result, error) {
	s := &simSuite{
		name:  "fig6-sweep",
		cells: len(fig6Panels) * fig6Seeds(o) * len(core.AllHeuristics()),
		// A pass has 240 cells: the 95th percentile is the highest with
		// ten samples beyond it.
		tail:      95,
		minPasses: 3,
		setups:    3,
		build: func(o options) (func(int, *recorder) (sim.Config, error), []core.Scheduler, error) {
			policies := core.AllHeuristics()
			config := func(i int, rec *recorder) (sim.Config, error) {
				kind, seed := fig6Cell(o, i, len(policies))
				wcfg := workload.Fig6Config(kind, seed)
				rec.begin(spGenerate, int64(i))
				apps, err := workload.Generate(wcfg)
				rec.end()
				if err != nil {
					return sim.Config{}, err
				}
				return sim.Config{Platform: wcfg.Platform.WithoutBB(), Scheduler: policies[i%len(policies)], Apps: apps}, nil
			}
			return config, policies, nil
		},
		observability: fig6Observability,
	}
	return s.run(o)
}

// fig6Observability prices the three observability layers when enabled:
// one pass over panel A with each attached, over the plain pass. The
// end-to-end runs have all three off; these numbers are what a single
// capture site per decision point has to beat.
func fig6Observability(o options, sr *simRunner, res *result) error {
	panelA := sr.suite.cells / len(fig6Panels)
	timePass := func(attach func(cfg *sim.Config)) (float64, error) {
		var best float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for i := 0; i < panelA; i++ {
				cfg, err := sr.config(i, nil)
				if err != nil {
					return 0, err
				}
				attach(&cfg)
				if _, err := sim.Run(cfg); err != nil {
					return 0, err
				}
			}
			if s := time.Since(t0).Seconds(); rep == 0 || s < best {
				best = s
			}
			if o.smoke {
				break
			}
		}
		return best, nil
	}
	plain, err := timePass(func(*sim.Config) {})
	if err != nil {
		return err
	}
	sink := dectrace.NewWriter(io.Discard)
	probe := &telemetry.Probe{MaxPoints: 4096}
	layers := []struct {
		name   string
		attach func(cfg *sim.Config)
	}{
		{"sim.dectrace_ratio", func(cfg *sim.Config) { cfg.DecisionTrace = sink }},
		{"sim.telemetry_ratio", func(cfg *sim.Config) { cfg.Telemetry = probe }},
		// A monitor is per-run state, built fresh for every cell as the
		// campaign runner does.
		{"sim.health_ratio", func(cfg *sim.Config) { cfg.Health = health.New(health.Config{}) }},
	}
	for _, l := range layers {
		with, err := timePass(l.attach)
		if err != nil {
			return err
		}
		res.set(l.name, with/plain, panelA)
	}
	return sink.Err()
}

// --- pop100k ----------------------------------------------------------------

func runPop100k(o options) (*result, error) {
	nApps, cohorts := 100_000, 20
	if o.smoke {
		nApps, cohorts = 10_000, 4
	}
	s := &simSuite{
		name:  "pop100k",
		cells: 1,
		// A slice is ten runs: beyond the 75th percentile a run's time
		// is set by the collector and by the machine's other tenants.
		tail:      75,
		minPasses: 20,
		setups:    5,
		build: func(o options) (func(int, *recorder) (sim.Config, error), []core.Scheduler, error) {
			p, apps := population(o.seed, nApps, cohorts)
			policies := []core.Scheduler{core.MaxSysEff()}
			config := func(int, *recorder) (sim.Config, error) {
				return sim.Config{Platform: p, Scheduler: policies[0], Apps: apps}, nil
			}
			return config, policies, nil
		},
	}
	return s.run(o)
}

// population builds the scaled periodic population of the repository's
// BenchmarkFig6a100k: cohorts that release together and stay in flight
// concurrently, on a platform provisioned at 1.25 × the aggregate demand,
// so the Saturating fast path carries the rounds and the measured cost is
// the engine's own. Each cohort's work is jittered ±1% from the seed: enough
// that no two seeds run the same instants, too little to reorder the
// cohorts, so the engine does the same amount of work whatever the seed.
func population(seed int64, nApps, cohorts int) (*platform.Platform, []*platform.App) {
	const nodesPerApp = 64
	p := &platform.Platform{
		Name:    "pop-bench",
		Nodes:   nApps*nodesPerApp + 1,
		NodeBW:  0.0125,
		TotalBW: float64(nApps) * nodesPerApp * 0.0125 * 1.25,
	}
	rng := rand.New(rand.NewSource(seed))
	size := nApps / cohorts
	apps := make([]*platform.App, 0, nApps)
	for c := 0; c < cohorts; c++ {
		work := (100 + 10*float64(c)) * (0.99 + 0.02*rng.Float64())
		for i := 0; i < size; i++ {
			apps = append(apps, platform.NewPeriodic(c*size+i, nodesPerApp, work, 80, 1))
		}
	}
	return p, apps
}
