package sim

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/platform"
	"repro/internal/workload"
)

// compareResults requires two Results to be bit-identical in every field.
func compareResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Events != want.Events {
		t.Errorf("%s: Events = %d, want %d", name, got.Events, want.Events)
	}
	if got.Decisions != want.Decisions || got.Skipped != want.Skipped {
		t.Errorf("%s: Decisions/Skipped = %d/%d, want %d/%d",
			name, got.Decisions, got.Skipped, want.Decisions, want.Skipped)
	}
	if got.Summary != want.Summary {
		t.Errorf("%s: Summary = %+v, want %+v", name, got.Summary, want.Summary)
	}
	if got.BBPeakLevel != want.BBPeakLevel || got.BBFullTime != want.BBFullTime {
		t.Errorf("%s: BB stats = (%g, %g), want (%g, %g)",
			name, got.BBPeakLevel, got.BBFullTime, want.BBPeakLevel, want.BBFullTime)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%s: %d apps, want %d", name, len(got.Apps), len(want.Apps))
	}
	for i := range got.Apps {
		if got.Apps[i] != want.Apps[i] {
			t.Errorf("%s: app %d = %+v, want %+v", name, i, got.Apps[i], want.Apps[i])
		}
	}
}

// jsonRoundTrip proves the snapshot's exported form is complete: the
// resumed run works from the decoded copy, never from shared state.
func jsonRoundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return &out
}

// TestSplitRunEquivalence pins the warm-start contract: for every
// scenario in the cross-engine battery, run to time t, capture a
// Snapshot, round-trip it through JSON and resume — the Result must be
// bit-identical to the uninterrupted run, at several split points.
func TestSplitRunEquivalence(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			full := runEquivCase(t, c)
			for _, frac := range []float64{0, 0.25, 0.5, 0.8} {
				at := frac * full.Summary.Makespan
				snap, err := RunToSnapshot(c.Cfg, at)
				if err != nil {
					t.Fatalf("RunToSnapshot(%g): %v", at, err)
				}
				if snap.Time > at {
					t.Fatalf("snapshot at t=%g past stop time %g", snap.Time, at)
				}
				if snap.RedecideOnResume {
					t.Fatalf("captured snapshot sets RedecideOnResume")
				}
				res, err := Resume(c.Cfg, jsonRoundTrip(t, snap))
				if err != nil {
					t.Fatalf("Resume(%g): %v", at, err)
				}
				compareResults(t, c.Name, res, full)
			}
		})
	}
}

// TestChainedSnapshots fast-forwards a run through several
// ResumeToSnapshot segments before the final Resume; the composition
// must still be bit-identical to the uninterrupted run, and a snapshot
// past the makespan must report completion.
func TestChainedSnapshots(t *testing.T) {
	cases := equivCases(t)
	for _, c := range []equivCase{cases[0], cases[10], cases[len(cases)-1]} {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			full := runEquivCase(t, c)
			span := full.Summary.Makespan
			snap, err := RunToSnapshot(c.Cfg, 0.2*span)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.4, 0.6, 0.9} {
				snap, err = ResumeToSnapshot(c.Cfg, jsonRoundTrip(t, snap), frac*span)
				if err != nil {
					t.Fatalf("ResumeToSnapshot(%g): %v", frac*span, err)
				}
			}
			res, err := Resume(c.Cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, c.Name, res, full)

			final, err := ResumeToSnapshot(c.Cfg, snap, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if !final.Done() {
				t.Errorf("snapshot past makespan not Done")
			}
			if final.Time != full.Summary.Makespan {
				t.Errorf("final snapshot at t=%g, makespan %g", final.Time, full.Summary.Makespan)
			}
			done, err := Resume(c.Cfg, final)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, c.Name+"/done", done, full)
		})
	}
}

// TestRedecideOnResumeInvalidatesMemo pins the what-if contract: a
// snapshot captured with a live decision memo, resumed with
// RedecideOnResume under a different Memoizable policy, must actually
// invoke that policy at the resume instant — restoring the memo would
// skip the forced round and leave the incumbent's grants in place.
func TestRedecideOnResumeInvalidatesMemo(t *testing.T) {
	p := &platform.Platform{Name: "memo", Nodes: 16, NodeBW: 1, TotalBW: 4}
	apps := []*platform.App{
		// Unequal node counts so fair-share (2/2) and proportional-share
		// (8/3, 4/3) split the congested link differently.
		{ID: 1, Name: "big", Nodes: 4, Release: 0, Instances: []platform.Instance{{Work: 1, Volume: 100}}},
		{ID: 2, Name: "small", Nodes: 2, Release: 0, Instances: []platform.Instance{{Work: 1, Volume: 100}}},
		// A late release whose event lets the steady congested state
		// converge back to a fresh memo before the snapshot.
		{ID: 3, Name: "late", Nodes: 2, Release: 5, Instances: []platform.Instance{{Work: 100, Volume: 1}}},
	}
	fair, err := core.ByName("fair-share")
	if err != nil {
		t.Fatal(err)
	}
	prop, err := core.ByName("proportional-share")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: p, Scheduler: fair, Apps: apps, CheckGrants: true}
	snap, err := RunToSnapshot(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.MemoValid {
		t.Fatal("scenario did not converge to a live memo; the test needs one")
	}

	clone := snap.Clone()
	clone.RedecideOnResume = true
	what := cfg
	what.Scheduler = prop
	out, err := ResumeToSnapshot(what, clone, snap.Time)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decisions != snap.Decisions+1 {
		t.Errorf("re-decision under the new policy was not invoked: decisions %d -> %d (skipped %d -> %d)",
			snap.Decisions, out.Decisions, snap.Skipped, out.Skipped)
	}
	changed := false
	for i := range out.Apps {
		if out.Apps[i].BW != snap.Apps[i].BW {
			changed = true
		}
	}
	if !changed {
		t.Error("proportional-share re-decision left every grant at fair-share's split")
	}
}

// TestSnapshotValidation covers the restore error paths: mismatched
// application sets, burst-buffer config disagreements, bad phases.
func TestSnapshotValidation(t *testing.T) {
	c := equivCases(t)[0]
	snap, err := RunToSnapshot(c.Cfg, 100)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Resume(c.Cfg, nil); err == nil {
		t.Error("Resume with nil snapshot: want error")
	}

	short := snap.Clone()
	short.Apps = short.Apps[:len(short.Apps)-1]
	if _, err := Resume(c.Cfg, short); err == nil {
		t.Error("Resume with missing app state: want error")
	}

	renamed := snap.Clone()
	renamed.Apps[0].ID = 987654
	if _, err := Resume(c.Cfg, renamed); err == nil {
		t.Error("Resume with unknown app id: want error")
	}

	bad := snap.Clone()
	bad.Apps[0].Phase = "meditating"
	if _, err := Resume(c.Cfg, bad); err == nil {
		t.Error("Resume with unknown phase: want error")
	}

	// Burst-buffer disagreements, on a platform that has one so the
	// mismatch check (not platform validation) is what trips.
	var withBB *equivCase
	cases := equivCases(t)
	for i := range cases {
		if cases[i].Cfg.Platform.BurstBuffer != nil && !cases[i].Cfg.UseBB {
			withBB = &cases[i]
			break
		}
	}
	if withBB == nil {
		t.Fatal("battery has no BB-capable case without UseBB")
	}
	snapBB, err := RunToSnapshot(withBB.Cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	hasBB := snapBB.Clone()
	hasBB.BB = &BBState{LevelGiB: 1}
	if _, err := Resume(withBB.Cfg, hasBB); err == nil {
		t.Error("Resume with BB state but UseBB unset: want error")
	}
	cfgBB := withBB.Cfg
	cfgBB.UseBB = true
	if _, err := Resume(cfgBB, snapBB); err == nil {
		t.Error("Resume with UseBB but no BB state: want error")
	}
}

// TestSplitRunHealthEquivalence pins the capture half of the warm-start
// contract: a health monitor attached to both halves of a split run sees
// every decision point the uninterrupted run feeds it — the t = 0 point
// included — so verdicts and firing counts agree. The first workload is
// built to show a missed point: both applications are candidates at t = 0
// (zero-work first instance) and the detectors fire on a single sample.
func TestSplitRunHealthEquivalence(t *testing.T) {
	eager := health.Config{JainThreshold: 0.999, JainWindow: 1, CongestionWindow: 1, MinBacklog: 0.5}
	type healthCase struct {
		name string
		cfg  Config
		hcfg health.Config
	}
	cases := []healthCase{{
		name: "candidates-at-t0",
		cfg: Config{Platform: testPlatform(), Scheduler: core.RoundRobin(), Apps: []*platform.App{
			platform.NewPeriodic(0, 20, 0, 50, 2),
			platform.NewPeriodic(1, 20, 0, 50, 2),
		}},
		hcfg: eager,
	}}
	for _, c := range equivCases(t) {
		cases = append(cases, healthCase{name: c.Name, cfg: c.Cfg})
	}
	verdict := func(res *Result) string {
		b, err := json.Marshal(res.Health)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Health = health.New(c.hcfg)
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "candidates-at-t0" && full.Anomalies == 0 {
				t.Fatal("uninterrupted run fired no detector; the workload no longer probes t = 0")
			}
			want := verdict(full)
			for _, frac := range []float64{0, 0.25, 0.5, 0.8} {
				at := frac * full.Summary.Makespan
				cfg.Health = health.New(c.hcfg)
				snap, err := RunToSnapshot(cfg, at)
				if err != nil {
					t.Fatalf("RunToSnapshot(%g): %v", at, err)
				}
				res, err := Resume(cfg, jsonRoundTrip(t, snap))
				if err != nil {
					t.Fatalf("Resume(%g): %v", at, err)
				}
				if res.Anomalies != full.Anomalies {
					t.Errorf("split at %g: %d anomalies, uninterrupted %d", at, res.Anomalies, full.Anomalies)
				}
				if got := verdict(res); got != want {
					t.Errorf("split at %g: health\n got %s\nwant %s", at, got, want)
				}
			}
		})
	}
}

// TestViewCacheRebuiltOnResume splits a congested Priority run mid-way:
// the resumed simulation starts with candidates but a fresh kernel, whose
// ordered candidate view is derived state — rebuilt on the first read,
// never restored — and still finishes bit-identical to the uninterrupted
// run.
func TestViewCacheRebuiltOnResume(t *testing.T) {
	wcfg := workload.Fig6Config(workload.Fig6B, 11)
	apps, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: wcfg.Platform.WithoutBB(), Scheduler: core.MaxSysEff().WithPriority(),
		Apps: apps, CheckGrants: true}
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Decisions == 0 {
		t.Fatal("the mix never invoked the policy")
	}
	for _, frac := range []float64{0.3, 0.6} {
		snap, err := RunToSnapshot(cfg, frac*full.Summary.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSimulationFromSnapshot(cfg, jsonRoundTrip(t, snap))
		if err != nil {
			t.Fatal(err)
		}
		if n := s.k.Cands.Len(); n < 2 {
			t.Fatalf("split at %g: %d candidates, want a congested instant", frac, n)
		}
		if _, err := s.loop(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		compareResults(t, "Priority-MaxSysEff", s.collect(), full)
	}
}
