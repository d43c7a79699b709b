package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig6Call is one recorded policy call: the decision time, the capacity
// and a copy of every candidate view as the engine handed it over.
type fig6Call struct {
	now  float64
	cap  core.Capacity
	apps []*core.AppView
}

// fig6Recorder stands in for a heuristic inside the simulator and keeps a
// copy of every sample-th AllocateInto input. The embedded heuristic
// forwards Name and the Memoizable, Saturating and SingleFullGrant
// capabilities, so the engine skips exactly the decision points it skips
// for the bare heuristic and the recorded calls are the engine's traffic.
type fig6Recorder struct {
	*core.Heuristic
	sample, seen int
	calls        []fig6Call
}

func (r *fig6Recorder) AllocateInto(scr *core.Scratch, now float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	if r.seen%r.sample == 0 {
		views := make([]core.AppView, len(apps))
		c := fig6Call{now: now, cap: cap, apps: make([]*core.AppView, len(apps))}
		for i, v := range apps {
			views[i] = *v
			c.apps[i] = &views[i]
		}
		r.calls = append(r.calls, c)
	}
	r.seen++
	return r.Heuristic.AllocateInto(scr, now, apps, cap)
}

// recordFig6 runs every heuristic over the first mixes of Figure 6 panels
// B and C, where 93 % of the fig6-sweep workload's policy calls come from
// (docs/performance.md), and returns each heuristic's sampled calls:
// about 180 per heuristic, 4.6 MB of views in all.
func recordFig6(b *testing.B) []*fig6Recorder {
	b.Helper()
	var recs []*fig6Recorder
	for _, s := range core.AllHeuristics() {
		rec := &fig6Recorder{Heuristic: s.(*core.Heuristic), sample: 64}
		for _, kind := range []workload.Fig6Kind{workload.Fig6B, workload.Fig6C} {
			for seed := int64(1); seed <= 4; seed++ {
				wcfg := workload.Fig6Config(kind, seed)
				apps, err := workload.Generate(wcfg)
				if err != nil {
					b.Fatal(err)
				}
				cfg := sim.Config{Platform: wcfg.Platform.WithoutBB(), Scheduler: rec, Apps: apps}
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// BenchmarkAllocateFig6 is the policy pass on recorded Figure 6 traffic:
// each op is one AllocateInto call on a reused Scratch, cycling through
// the heuristic's sampled panel-B/C calls. Unlike BenchmarkAllocate's
// fixed inputs, consecutive calls differ in size, keys and capacity, so
// the branch predictor cannot learn one input's comparisons.
func BenchmarkAllocateFig6(b *testing.B) {
	for _, rec := range recordFig6(b) {
		calls := rec.calls
		b.Run(rec.Name(), func(b *testing.B) {
			var scr core.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &calls[i%len(calls)]
				if grants := rec.Heuristic.AllocateInto(&scr, c.now, c.apps, c.cap); len(grants) == 0 {
					b.Fatal("no grants")
				}
			}
		})
	}
}
