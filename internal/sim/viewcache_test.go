package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestViewCacheMatchesRebuild drives random interleavings of candAdd,
// candRemove, view transitions and Views reads — zero, one and several
// membership changes between reads — and checks every read against a
// from-scratch rebuild: index-ordered, pointer-identical to
// &apps[i].view. Alongside it pins the state machine: a Transition-only
// version bump leaves the cache alone, the first membership change after a
// read patches, a second one before the next read only marks it stale.
func TestViewCacheMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		s := newArena(Config{Apps: make([]*platform.App, n), Scheduler: core.MaxSysEff()})
		for i := range s.apps {
			// Descending IDs: index order is not ID order.
			s.apps[i] = appState{index: i, candPos: -1, activePos: -1,
				view: core.AppView{ID: 1000 - i, Nodes: 1, Phase: core.Pending}}
		}
		changes := -1 // membership changes since the last read; -1: never read
		for step := 0; step < 400; step++ {
			st := &s.apps[rng.Intn(n)]
			switch op := rng.Intn(10); {
			case op < 3:
				before := s.view
				if st.candPos >= 0 {
					s.candRemove(st)
				} else {
					s.candAdd(st)
				}
				if changes >= 0 {
					changes++
				}
				want := viewStale
				if changes == 1 {
					want = viewPatched
				}
				if s.view != want {
					t.Fatalf("trial %d step %d: state %d -> %d after change %d since the last read, want %d",
						trial, step, before, s.view, changes, want)
				}
			case op < 5:
				// What applying a verdict does: view fields change and the
				// kernel's version moves, membership does not.
				before, ver := s.view, s.k.Version
				st.view.Phase, st.view.Started = core.Pending, false
				s.k.Transition(&st.view, 1, float64(step)) // a first grant
				if s.k.Version == ver {
					t.Fatalf("trial %d step %d: transition did not bump the version", trial, step)
				}
				if s.view != before {
					t.Fatalf("trial %d step %d: a transition moved the view state %d -> %d", trial, step, before, s.view)
				}
			default:
				got := s.Views()
				want := slices.Clone(s.candidates)
				slices.Sort(want)
				if len(got) != len(want) || len(s.candSorted) != len(want) {
					t.Fatalf("trial %d step %d: %d views, %d indices, want %d", trial, step, len(got), len(s.candSorted), len(want))
				}
				for j, i := range want {
					if got[j] != &s.apps[i].view || s.candSorted[j] != i {
						t.Fatalf("trial %d step %d (%d changes since the last read): slot %d holds index %d, want %d",
							trial, step, changes, j, s.candSorted[j], i)
					}
				}
				if s.view != viewRead {
					t.Fatalf("trial %d step %d: state %d after a read", trial, step, s.view)
				}
				changes = 0
			}
		}
	}
}

// TestViewCacheRebuiltOnResume splits a congested Priority run mid-way:
// the resumed simulation starts with candidates but no view cache (it is
// derived state, rebuilt on the first read, never restored) and still
// finishes bit-identical to the uninterrupted run.
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
		if len(s.candidates) < 2 {
			t.Fatalf("split at %g: %d candidates, want a congested instant", frac, len(s.candidates))
		}
		if s.want != nil || s.view != viewStale {
			t.Fatalf("split at %g: resumed with a view cache (%d views, state %d)", frac, len(s.want), s.view)
		}
		if _, err := s.loop(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if s.want == nil {
			t.Errorf("split at %g: the resumed run never built the view", frac)
		}
		compareResults(t, "Priority-MaxSysEff", s.collect(), full)
	}
}
