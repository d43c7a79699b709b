package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a small but real grid: 2 platforms × 3 schedulers ×
// 1 workload × 3 seeds = 18 cells. The custom workload keeps cells fast.
func testSpec() *Spec {
	return &Spec{
		Name: "test-sweep",
		Platforms: []PlatformSpec{
			{Preset: "intrepid"},
			{Preset: "mira"},
		},
		Schedulers: []string{"fair-share", "MaxSysEff", "MinDilation"},
		Workloads: []WorkloadSpec{{
			Name: "tiny-mix",
			Generator: &GeneratorSpec{
				Groups:         []GroupSpec{{Count: 4, Category: "large"}},
				IORatio:        0.2,
				WMinS:          100,
				WMaxS:          300,
				TargetTimeS:    1200,
				MinInstances:   2,
				ReleaseSpreadS: 20,
			},
		}},
		Seeds: SeedRange{Start: 42, Count: 3},
	}
}

// momentSpec is testSpec with its workload swapped for the congested
// moments drawn from setSeed: cell seed 42 runs moment 42.
func momentSpec(setSeed int64) *Spec {
	s := testSpec()
	s.Workloads = []WorkloadSpec{{Name: "tiny-mix", Moments: &MomentSpec{SetSeed: setSeed}}}
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Platforms = nil },
		func(s *Spec) { s.Platforms[0].Preset = "nonesuch" },
		func(s *Spec) { s.Platforms = append(s.Platforms, PlatformSpec{Preset: "intrepid"}) },
		func(s *Spec) { s.Schedulers = nil },
		func(s *Spec) { s.Schedulers[0] = "NoSuchPolicy" },
		func(s *Spec) { s.Schedulers = append(s.Schedulers, "fair-share") },
		func(s *Spec) { s.Workloads = nil },
		func(s *Spec) { s.Workloads[0].Name = "" },
		func(s *Spec) { s.Workloads[0].Scenario = "fig6a" }, // both scenario and generator
		func(s *Spec) { s.Workloads[0].Generator.Groups[0].Category = "huge" },
		func(s *Spec) { s.Workloads[0].Generator.Groups = nil },
		func(s *Spec) { s.Workloads[0].Generator.IORatio = 0 },
		func(s *Spec) { s.Seeds.Count = 0 },
		func(s *Spec) {
			s.Sim.UseBB = true
			s.Platforms = []PlatformSpec{{Name: "bare", Nodes: 100, NodeBW: 1, TotalBW: 10}}
		},
		func(s *Spec) { s.Workloads[0].Moments = &MomentSpec{} }, // moments and generator
		func(s *Spec) { s.Workloads[0] = WorkloadSpec{Name: "m", Scenario: "fig6a", Moments: &MomentSpec{}} },
		func(s *Spec) {
			s.Workloads[0] = WorkloadSpec{Name: "m", Moments: &MomentSpec{}}
			s.Platforms = append(s.Platforms, PlatformSpec{Preset: "vesta"}) // no moment set
		},
		func(s *Spec) {
			s.Workloads[0] = WorkloadSpec{Name: "m", Moments: &MomentSpec{}}
			s.Platforms[0].Nodes = 1 // another machine: no moment set
		},
		func(s *Spec) {
			s.Workloads[0] = WorkloadSpec{Name: "m", Moments: &MomentSpec{}}
			s.Seeds.Start = -1 // not a moment index
		},
	}
	if err := momentSpec(1).Validate(); err != nil {
		t.Fatalf("moment spec rejected: %v", err)
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPlatformOverrides(t *testing.T) {
	p, err := PlatformSpec{Preset: "vesta", Name: "vesta-fat-io", TotalBW: 40}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "vesta-fat-io" || p.TotalBW != 40 || p.Nodes != 2048 {
		t.Errorf("override mis-applied: %+v", p)
	}
	if _, err := (PlatformSpec{Name: "custom"}).resolve(); err == nil {
		t.Error("custom platform without capacities accepted")
	}
	custom, err := PlatformSpec{Name: "custom", Nodes: 512, NodeBW: 0.05, TotalBW: 5}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if custom.Nodes != 512 {
		t.Errorf("custom nodes = %d", custom.Nodes)
	}
}

func TestExpandGrid(t *testing.T) {
	s := testSpec()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*3*1*3 {
		t.Fatalf("expanded %d cells, want 18", len(cells))
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if keys[c.Key] {
			t.Errorf("duplicate cell key %s (%s)", c.Key, c.Name())
		}
		keys[c.Key] = true
		if len(c.Key) != 64 {
			t.Errorf("cell key %q not a sha256 hex digest", c.Key)
		}
	}
	// Schedulers are innermost: the first three cells share a shard.
	if cells[0].shard != cells[2].shard || cells[2].shard == cells[3].shard {
		t.Errorf("shard layout wrong: %d %d %d", cells[0].shard, cells[2].shard, cells[3].shard)
	}
	// Expansion is deterministic.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Key != again[i].Key {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

func TestCellKeySensitivity(t *testing.T) {
	base := testSpec()
	baseCells, err := base.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Workloads[0].Generator.IORatio = 0.25 },
		func(s *Spec) { s.Platforms[0].TotalBW = 30 },
		func(s *Spec) { s.Seeds.Start = 43 },
		func(s *Spec) { s.Sim.RequestLatencyS = 0.01 },
		func(s *Spec) { s.Sim.TelemetrySampleS = 5 },
	}
	for i, mutate := range mutations {
		s := testSpec()
		mutate(s)
		cells, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if cells[0].Key == baseCells[0].Key {
			t.Errorf("mutation %d left cell 0 key unchanged", i)
		}
	}
	// A moment cell's key follows the moment's identity (set seed and
	// index) and differs from the generator cell with the same seed.
	momentCells, err := momentSpec(1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	momentMutations := []func(*Spec){
		func(s *Spec) { s.Workloads[0].Moments.SetSeed = 2 },
		func(s *Spec) { s.Seeds.Start = 43 },
		func(s *Spec) { s.Workloads = testSpec().Workloads },
	}
	for i, mutate := range momentMutations {
		s := momentSpec(1)
		mutate(s)
		cells, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if cells[0].Key == momentCells[0].Key {
			t.Errorf("moment mutation %d left cell 0 key unchanged", i)
		}
	}

	// A renamed workload label groups differently but caches identically.
	s := testSpec()
	s.Workloads[0].Name = "renamed"
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Key != baseCells[0].Key {
		t.Error("workload label participates in the content hash")
	}

	// The behaviour fingerprint participates in every key: each cell's
	// key is its content hashed under the fingerprint, and any other
	// engine value gives a different key.
	engine, err := engineFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range baseCells {
		if got := cellKey(engine, &c, base.Sim); got != c.Key {
			t.Errorf("%s: key is not its content under the fingerprint", c.Name())
		}
		if cellKey("other-engine", &c, base.Sim) == c.Key {
			t.Errorf("%s: the fingerprint does not participate in the key", c.Name())
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if _, hit, err := cache.Get(key); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	res := &CellResult{Key: key, Platform: "p", Scheduler: "s", Workload: "w", Seed: 7, Apps: 3}
	res.Summary.SysEfficiency = 88.25
	if err := cache.Put(res); err != nil {
		t.Fatal(err)
	}
	got, hit, err := cache.Get(key)
	if err != nil || !hit {
		t.Fatalf("after put: hit=%v err=%v", hit, err)
	}
	if *got != *res {
		t.Errorf("round trip changed result: %+v vs %+v", got, res)
	}
	if n, err := cache.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v", n, err)
	}
	// Corruption is an error, not a silent miss.
	path := cache.objectPath(key)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(key); err == nil {
		t.Error("corrupt entry read back without error")
	}
	// Nil cache is inert.
	var nilCache *Cache
	if _, hit, err := nilCache.Get(key); err != nil || hit {
		t.Error("nil cache hit")
	}
	if err := nilCache.Put(res); err != nil {
		t.Error(err)
	}
}

func TestRunnerCachesCells(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	var log1 bytes.Buffer
	res1, stats1, err := (&Runner{Spec: spec, Cache: cache, Log: &log1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Simulated != 18 || stats1.CacheHits != 0 {
		t.Fatalf("fresh run: %+v", stats1)
	}
	if len(res1.Groups) != 6 {
		t.Fatalf("got %d groups, want 6", len(res1.Groups))
	}
	for _, g := range res1.Groups {
		if g.Cells != 3 {
			t.Errorf("group %s reduced %d cells, want 3", g.GroupKey, g.Cells)
		}
		if g.SysEfficiency <= 0 || g.SysEfficiency > 100 {
			t.Errorf("group %s SysEfficiency = %g", g.GroupKey, g.SysEfficiency)
		}
		if g.Dilation < 1 {
			t.Errorf("group %s Dilation = %g", g.GroupKey, g.Dilation)
		}
	}

	// Second run: pure cache replay.
	var log2 bytes.Buffer
	res2, stats2, err := (&Runner{Spec: spec, Cache: cache, Log: &log2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Simulated != 0 || stats2.CacheHits != 18 {
		t.Fatalf("warm run: %+v", stats2)
	}
	if !strings.Contains(log2.String(), "cache hit") || strings.Contains(log2.String(), "simulated") {
		t.Errorf("warm log wrong:\n%s", log2.String())
	}
	if res1.SpecHash != res2.SpecHash {
		t.Error("spec hash changed between runs")
	}

	// Growing the grid by one seed simulates only the new cells.
	spec.Seeds.Count = 4
	var log3 bytes.Buffer
	_, stats3, err := (&Runner{Spec: spec, Cache: cache, Log: &log3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats3.CacheHits != 18 || stats3.Simulated != 6 {
		t.Fatalf("grown run: %+v (want 18 hits, 6 simulated)", stats3)
	}
	if stats3.Shards != 2 {
		t.Errorf("grown run used %d shards, want 2 (one per platform for the new seed)", stats3.Shards)
	}

	// State reflects the grown campaign.
	st, ok, err := cache.LoadState("test-sweep")
	if err != nil || !ok {
		t.Fatalf("state missing: %v", err)
	}
	if st.Cells != 24 || st.Completed != 24 {
		t.Errorf("state = %+v", st)
	}
	states, err := cache.States()
	if err != nil || len(states) != 1 {
		t.Errorf("States() = %v, %v", states, err)
	}
}

// TestCellResultRecordsBBStats: a burst-buffer cell's CellResult must carry the pressure statistics the
// simulator reports, and they must survive the cache round trip.
func TestCellResultRecordsBBStats(t *testing.T) {
	spec := testSpec()
	spec.Name = "bb-sweep"
	spec.Platforms = spec.Platforms[:1] // intrepid has a burst buffer
	spec.Schedulers = []string{"fair-share"}
	spec.Seeds = SeedRange{Start: 42, Count: 1}
	spec.Sim.UseBB = true

	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, c := range res.Cells {
		if c.BBPeakLevel < 0 || c.BBFullTime < 0 {
			t.Errorf("cell %s has negative BB stats %g/%g", c.Key, c.BBPeakLevel, c.BBFullTime)
		}
		if c.BBPeakLevel > peak {
			peak = c.BBPeakLevel
		}
	}
	if peak == 0 {
		t.Error("no burst-buffer cell recorded a nonzero peak level")
	}

	// Warm replay serves the same stats from the cache.
	warm, stats, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("warm run simulated %d cells", stats.Simulated)
	}
	for i, c := range warm.Cells {
		if c.BBPeakLevel != res.Cells[i].BBPeakLevel || c.BBFullTime != res.Cells[i].BBFullTime {
			t.Errorf("cell %d BB stats changed across cache replay", i)
		}
	}
}

// TestCellResultRecordsSkipBreakdown: every cell's per-reason skip counters must sum to Skipped and
// survive the cache round trip.
func TestCellResultRecordsSkipBreakdown(t *testing.T) {
	spec := testSpec()
	spec.Name = "skip-breakdown"

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	anySkipped := false
	for _, c := range res.Cells {
		if sum := c.SkippedMemo + c.SkippedSaturating + c.SkippedSingleFullGrant; sum != c.Skipped {
			t.Errorf("cell %s: breakdown %d+%d+%d != skipped %d", c.Key,
				c.SkippedMemo, c.SkippedSaturating, c.SkippedSingleFullGrant, c.Skipped)
		}
		if c.Skipped > 0 {
			anySkipped = true
		}
	}
	if !anySkipped {
		t.Error("no cell skipped any decision point; the breakdown test is vacuous")
	}

	warm, stats, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("warm run simulated %d cells", stats.Simulated)
	}
	for i, c := range warm.Cells {
		fresh := res.Cells[i]
		if c.SkippedMemo != fresh.SkippedMemo || c.SkippedSaturating != fresh.SkippedSaturating ||
			c.SkippedSingleFullGrant != fresh.SkippedSingleFullGrant {
			t.Errorf("cell %d skip breakdown changed across cache replay", i)
		}
	}
}

// TestFreshVsWarmByteIdentical is the seed-determinism regression test:
// the same campaign aggregated from a fresh simulation and from a warm
// cache must emit byte-identical JSON and CSV.
func TestFreshVsWarmByteIdentical(t *testing.T) {
	spec := testSpec()

	freshRes, _, err := (&Runner{Spec: spec}).Run() // nil cache: all simulated
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&Runner{Spec: spec, Cache: cache}).Run(); err != nil {
		t.Fatal(err)
	}
	warmRes, stats, err := (&Runner{Spec: spec, Cache: cache, Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != stats.Cells {
		t.Fatalf("warm run not fully cached: %+v", stats)
	}

	var fresh, warm bytes.Buffer
	if err := freshRes.WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if err := warmRes.WriteJSON(&warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), warm.Bytes()) {
		t.Error("fresh and warm JSON differ")
	}
	var freshCSV, warmCSV bytes.Buffer
	if err := freshRes.WriteGroupsCSV(&freshCSV); err != nil {
		t.Fatal(err)
	}
	if err := warmRes.WriteGroupsCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshCSV.Bytes(), warmCSV.Bytes()) {
		t.Error("fresh and warm CSV differ")
	}
}

func TestAggregatorOrderIndependent(t *testing.T) {
	mk := func(seed int64, eff float64) *CellResult {
		r := &CellResult{Platform: "p", Workload: "w", Scheduler: "s", Seed: seed}
		r.Summary.SysEfficiency = eff
		r.Summary.Dilation = 1 + eff/1000
		return r
	}
	a, b := NewAggregator(), NewAggregator()
	cells := []*CellResult{mk(0, 90.125), mk(1, 85.5), mk(2, 70.25), mk(3, 99.875)}
	for i, c := range cells {
		a.Add(i, c)
	}
	for _, i := range []int{2, 0, 3, 1} {
		b.Add(i, cells[i])
	}
	ga, gb := a.Groups(), b.Groups()
	if len(ga) != 1 || len(gb) != 1 {
		t.Fatalf("groups: %d, %d", len(ga), len(gb))
	}
	if ga[0] != gb[0] {
		t.Errorf("aggregation depends on completion order:\n%+v\n%+v", ga[0], gb[0])
	}
}

func TestLoadSpecJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	good := `{
	  "name": "json-sweep",
	  "platforms": [{"preset": "vesta"}, {"preset": "vesta", "name": "vesta-2x", "total_bw_gibs": 20}],
	  "schedulers": ["FairShare", "MaxSysEff"],
	  "workloads": [{"name": "panel-a", "scenario": "fig6a"}],
	  "seeds": {"start": 1, "count": 2}
	}`
	// "FairShare" is not a report name; the spec must reject it so typos
	// fail fast.
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("unknown scheduler name accepted")
	}
	good = strings.Replace(good, `"FairShare"`, `"fair-share"`, 1)
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*1*2 {
		t.Errorf("expanded %d cells, want 8", len(cells))
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestResultsEmitters(t *testing.T) {
	spec := testSpec()
	spec.Seeds.Count = 2
	res, _, err := (&Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if len(doc.Tables) != 2 {
		t.Fatalf("document has %d tables, want one per platform/workload pair", len(doc.Tables))
	}
	var sb strings.Builder
	if err := doc.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MaxSysEff") {
		t.Errorf("rendered document missing scheduler rows:\n%s", sb.String())
	}

	path := filepath.Join(t.TempDir(), "results.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != res.Name || len(back.Groups) != len(res.Groups) || len(back.Cells) != len(res.Cells) {
		t.Errorf("results round trip lost data")
	}
	if _, ok := back.Group("intrepid", "tiny-mix", "MaxSysEff"); !ok {
		t.Error("Group lookup failed after round trip")
	}
}

// TestInterruptedRunLeavesResumableState: a campaign that fails mid-run
// must already have recorded its state (with real progress), so resume
// can pick it up; the failed cells stay uncached.
func TestInterruptedRunLeavesResumableState(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	// A platform too small for the mix: workload generation fails inside
	// the executor, after the state snapshot.
	spec.Platforms = append(spec.Platforms, PlatformSpec{Name: "toy", Nodes: 2, NodeBW: 1, TotalBW: 1})
	if _, _, err := (&Runner{Spec: spec, Cache: cache}).Run(); err == nil {
		t.Fatal("run on the toy platform unexpectedly succeeded")
	}
	st, ok, err := cache.LoadState(spec.Name)
	if err != nil || !ok {
		t.Fatalf("no state after interrupted run: %v", err)
	}
	if st.Cells != 27 || st.Completed != 0 {
		t.Errorf("state = %+v, want 27 cells / 0 completed", st)
	}
	// The healthy platforms' cells may or may not have completed before
	// the failure; a follow-up run on the healthy subset must succeed
	// and record full completion.
	spec.Platforms = spec.Platforms[:2]
	if _, _, err := (&Runner{Spec: spec, Cache: cache}).Run(); err != nil {
		t.Fatal(err)
	}
	st, _, err = cache.LoadState(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 18 || st.Completed != 18 {
		t.Errorf("state after recovery = %+v", st)
	}
}

// TestCellResultRecordsTelemetry: a telemetry-enabled spec produces a windowed congestion summary on every
// cell, with internally consistent values, and the summary survives the
// cache round trip byte for byte.
func TestCellResultRecordsTelemetry(t *testing.T) {
	spec := testSpec()
	spec.Name = "telemetry-sweep"
	spec.Schedulers = []string{"fair-share"}
	spec.Seeds = SeedRange{Start: 42, Count: 1}
	spec.Sim.TelemetrySampleS = 10

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		tel := c.Telemetry
		if tel == nil {
			t.Fatalf("cell %s: telemetry enabled but no summary recorded", c.Key)
		}
		if tel.Samples == 0 {
			t.Errorf("cell %s: zero telemetry samples", c.Key)
		}
		if tel.UtilMean < 0 || tel.UtilMean > 1 || tel.UtilP99 < tel.UtilMean {
			t.Errorf("cell %s: implausible utilization mean %g / p99 %g", c.Key, tel.UtilMean, tel.UtilP99)
		}
		if tel.JainMean <= 0 || tel.JainMean > 1 {
			t.Errorf("cell %s: Jain mean %g outside (0,1]", c.Key, tel.JainMean)
		}
		if tel.StretchP99 < 1 {
			t.Errorf("cell %s: stretch p99 %g < 1", c.Key, tel.StretchP99)
		}
		if tel.SteadyWindow.Start != 0.1*c.Summary.Makespan || tel.SteadyWindow.End != 0.9*c.Summary.Makespan {
			t.Errorf("cell %s: steady window %+v does not bracket the makespan %g",
				c.Key, tel.SteadyWindow, c.Summary.Makespan)
		}
		if tel.SteadySysEff <= 0 || tel.SteadyMeanDilation < 1 {
			t.Errorf("cell %s: steady objectives %g / %g out of range",
				c.Key, tel.SteadySysEff, tel.SteadyMeanDilation)
		}
	}

	warm, stats, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("warm run simulated %d cells", stats.Simulated)
	}
	for i, c := range warm.Cells {
		if c.Telemetry == nil || *c.Telemetry != *res.Cells[i].Telemetry {
			t.Errorf("cell %d telemetry summary changed across cache replay", i)
		}
	}

	// Telemetry off stays off: the default spec records no summary.
	plain := testSpec()
	plain.Schedulers = []string{"fair-share"}
	plain.Seeds = SeedRange{Start: 42, Count: 1}
	pres, _, err := (&Runner{Spec: plain, Cache: nil}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pres.Cells {
		if c.Telemetry != nil {
			t.Errorf("cell %s: telemetry summary recorded without sampling enabled", c.Key)
		}
	}
}

// TestCellResultRecordsAnomalies: a health-enabled spec records each cell's anomaly count and final health
// state, the fields survive the cache round trip unchanged, enabling
// health changes every cell key (cache invalidation), and health off
// records nothing.
func TestCellResultRecordsAnomalies(t *testing.T) {
	spec := testSpec()
	spec.Name = "health-sweep"
	spec.Schedulers = []string{"fair-share"}
	spec.Seeds = SeedRange{Start: 42, Count: 1}
	spec.Sim.Health = true

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.HealthState == "" {
			t.Errorf("cell %s: health enabled but no state recorded", c.Key)
		}
		if c.Anomalies < 0 {
			t.Errorf("cell %s: negative anomaly count %d", c.Key, c.Anomalies)
		}
	}

	warm, stats, err := (&Runner{Spec: spec, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("warm run simulated %d cells", stats.Simulated)
	}
	for i, c := range warm.Cells {
		if c.Anomalies != res.Cells[i].Anomalies || c.HealthState != res.Cells[i].HealthState {
			t.Errorf("cell %d anomaly fields changed across cache replay", i)
		}
	}

	// SimOptions.Health participates in the content hash: a spec that
	// only differs in it shares no cells with the plain one.
	plain := testSpec()
	plain.Schedulers = []string{"fair-share"}
	plain.Seeds = SeedRange{Start: 42, Count: 1}
	plainCells, err := plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	healthCells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range healthCells {
		if healthCells[i].Key == plainCells[i].Key {
			t.Errorf("cell %d: health flag does not participate in the cell key", i)
		}
	}

	// Health off stays off: the default spec records no verdict.
	pres, _, err := (&Runner{Spec: plain, Cache: nil}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pres.Cells {
		if c.HealthState != "" || c.Anomalies != 0 {
			t.Errorf("cell %s: health fields recorded without monitoring enabled", c.Key)
		}
	}
}
