package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// cohortPopulation is the BenchmarkFig6a100k shape at size n: cohorts of
// periodic applications that release together and overlap in I/O, on a
// platform provisioned so aggregate demand always fits and the Saturating
// fast path resolves every decision point.
func cohortPopulation(n int) Config {
	const nodesPerApp, cohorts = 64, 20
	p := &platform.Platform{
		Name:    "scale",
		Nodes:   n*nodesPerApp + 1,
		NodeBW:  0.0125,
		TotalBW: float64(n) * nodesPerApp * 0.0125 * 1.25,
	}
	apps := make([]*platform.App, 0, n)
	for c := 0; c < cohorts; c++ {
		for i := 0; i < n/cohorts; i++ {
			apps = append(apps, platform.NewPeriodic(len(apps), nodesPerApp, 100+10*float64(c), 80, 1))
		}
	}
	return Config{Platform: p, Scheduler: core.MaxSysEff(), Apps: apps}
}

// TestRunAllocationsIndependentOfPopulation pins the mechanism behind the
// population-scale numbers: a whole Run, and a Resume from a mid-run
// snapshot, allocates a fixed number of objects whatever the population
// size. One closure, map entry or timer per application — 7,000 more
// allocations at the larger size — fails it; the slack only admits
// slice-growth steps.
func TestRunAllocationsIndependentOfPopulation(t *testing.T) {
	check := func(n int, res *Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions != 0 || res.Skipped == 0 {
			t.Fatalf("n=%d: %d decisions, %d skipped; want the skip-only regime", n, res.Decisions, res.Skipped)
		}
	}
	allocs := func(n int) (run, resume float64) {
		cfg := cohortPopulation(n)
		run = testing.AllocsPerRun(3, func() {
			res, err := Run(cfg)
			check(n, res, err)
		})
		snap, err := RunToSnapshot(cfg, 150) // every cohort computing or in I/O
		if err != nil {
			t.Fatal(err)
		}
		resume = testing.AllocsPerRun(3, func() {
			res, err := Resume(cfg, snap)
			check(n, res, err)
		})
		return run, resume
	}
	small, smallResume := allocs(1000)
	large, largeResume := allocs(8000)
	t.Logf("allocations per Run: %g at n=1000, %g at n=8000; per Resume: %g and %g",
		small, large, smallResume, largeResume)
	if large-small > 16 {
		t.Errorf("allocations per Run grow with the population: %g at n=1000, %g at n=8000", small, large)
	}
	if largeResume-smallResume > 16 {
		t.Errorf("allocations per Resume grow with the population: %g at n=1000, %g at n=8000", smallResume, largeResume)
	}
}

// TestLazyLookupResolvesIDs runs a congested mix — the policy is invoked
// and its grants come back keyed by application ID — once with dense IDs
// (ID = index) and once with sparse ones under an order-preserving
// relabelling, which leaves every ID tie-break as it was. Grants landing
// on the right application make the two runs agree position by position;
// an index mistaken for an ID, or a stale lookup, does not.
func TestLazyLookupResolvesIDs(t *testing.T) {
	p := testPlatform()
	sparse := func(i int) int { return 100 + 7*i }
	mix := func(id func(int) int) []*platform.App {
		var apps []*platform.App
		for i := 0; i < 6; i++ {
			// 15 nodes each: any one app can take the whole 10 GiB/s.
			a := platform.NewPeriodic(id(i), 15, float64(20+3*i), float64(40+5*i), 4)
			a.Release = float64(2 * i)
			apps = append(apps, a)
		}
		return apps
	}
	for _, sched := range []core.Scheduler{core.RoundRobin(), core.MinDilation()} {
		dense, err := Run(Config{Platform: p, Scheduler: sched, CheckGrants: true,
			Apps: mix(func(i int) int { return i })})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Config{Platform: p, Scheduler: sched, CheckGrants: true,
			Apps: mix(sparse)})
		if err != nil {
			t.Fatal(err)
		}
		if got.Decisions == 0 || got.Summary.Dilation <= 1 {
			t.Fatalf("%s: %d decisions, dilation %g; want a congested run that invokes the policy",
				sched.Name(), got.Decisions, got.Summary.Dilation)
		}
		if got.Decisions != dense.Decisions || got.Skipped != dense.Skipped || got.Events != dense.Events {
			t.Errorf("%s: counters differ under relabelling: %d/%d/%d vs %d/%d/%d", sched.Name(),
				got.Decisions, got.Skipped, got.Events, dense.Decisions, dense.Skipped, dense.Events)
		}
		for i, a := range got.Apps {
			d := dense.Apps[i]
			if a.ID != sparse(i) || a.Finish != d.Finish || a.IOTime != d.IOTime {
				t.Errorf("%s: app %d = {ID %d, finish %g, io %g}, dense run {ID %d, finish %g, io %g}",
					sched.Name(), i, a.ID, a.Finish, a.IOTime, d.ID, d.Finish, d.IOTime)
			}
		}
	}
}

// TestFirstInstantReleasesSkipTheQueue: applications released at t = 0 go
// straight onto the first instant's firing list, so an all-zero-release
// population queues nothing at construction; the first instant releases
// every one of them and arms its compute deadline.
func TestFirstInstantReleasesSkipTheQueue(t *testing.T) {
	const n = 1000
	s := newSimulation(cohortPopulation(n))
	if s.eng.Len() != 0 || len(s.zeroPending) != n {
		t.Fatalf("after construction: %d timers queued, %d apps on the firing list; want 0 and %d",
			s.eng.Len(), len(s.zeroPending), n)
	}
	s.fireDue()
	if s.eng.Len() != n {
		t.Fatalf("after the first instant: %d timers queued, want every compute deadline (%d)", s.eng.Len(), n)
	}
	for i := range s.apps {
		if st := &s.apps[i]; st.phase != computing {
			t.Fatalf("app %d in phase %d after the first instant", i, st.phase)
		}
	}
}

// TestFirstInstantClock: a release in (0, timeEps] belongs to the first
// instant and moves the kernel's clock to it there, so a deadline set
// during that instant below it clamps to it. Only releases at exactly 0,
// which would not move the clock, may skip the queue.
func TestFirstInstantClock(t *testing.T) {
	short := platform.NewPeriodic(0, 1, 2e-10, 1, 1)
	late := platform.NewPeriodic(1, 1, 10, 1, 1)
	late.Release = 5e-10
	s := newSimulation(Config{Platform: testPlatform(), Scheduler: core.MaxSysEff(),
		Apps: []*platform.App{short, late}})
	s.fireDue()
	if w, ok := s.eng.When(s.apps[0].timer); !ok || w != late.Release {
		t.Fatalf("compute deadline of the short app at %g (queued %v), want the clamp to %g", w, ok, late.Release)
	}
	if s.apps[1].phase != computing {
		t.Fatalf("the app released at %g is in phase %d after the first instant", late.Release, s.apps[1].phase)
	}
}
