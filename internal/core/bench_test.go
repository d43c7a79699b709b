package core

import (
	"fmt"
	"testing"
)

func benchViews(n int) []*AppView {
	apps := make([]*AppView, n)
	for i := range apps {
		apps[i] = &AppView{
			ID:            i,
			Nodes:         64 + (i%8)*128,
			Phase:         Pending,
			RemVolume:     float64(10 + i%100),
			Started:       i%3 == 0,
			LastIOEnd:     float64(i % 50),
			CreditedWork:  float64(100 + i%37),
			CreditedIdeal: float64(120 + i%41),
		}
	}
	return apps
}

// BenchmarkAllocate measures the policy pass itself: AllocateInto on a
// reused Scratch, as an engine calls it (0 allocs/op at every n). Next to
// the population sizes it carries the traffic shape measured on the
// fig6-sweep workload (docs/performance.md): 33 candidates of which the
// capacity covers 3.5 full caps, so the greedy walk stops early.
func BenchmarkAllocate(b *testing.B) {
	shapes := []struct {
		n   int
		cap Capacity
	}{
		{8, Capacity{TotalBW: 64, NodeBW: 0.0125}},
		{33, Capacity{TotalBW: 3.5 * 64 * 0.0125, NodeBW: 0.0125}},
		{64, Capacity{TotalBW: 64, NodeBW: 0.0125}},
		{512, Capacity{TotalBW: 64, NodeBW: 0.0125}},
	}
	for _, sh := range shapes {
		views := benchViews(sh.n)
		if sh.n == 33 {
			for _, v := range views {
				v.Nodes = 64 // every cap equal: exactly 3.5 of them fit
			}
		}
		for _, sched := range []ScratchAllocator{
			MaxSysEff(), MinDilation().WithPriority(), MinMax(0.5), FairShare{},
		} {
			b.Run(fmt.Sprintf("%s/apps-%d", sched.Name(), sh.n), func(b *testing.B) {
				var scr Scratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					grants := sched.AllocateInto(&scr, 1000, views, sh.cap)
					if len(grants) == 0 {
						b.Fatal("no grants")
					}
				}
			})
		}
	}
}

func BenchmarkMaxMinFairShare(b *testing.B) {
	for _, n := range []int{8, 128, 2048} {
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = float64(1 + i%16)
		}
		b.Run(fmt.Sprintf("streams-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := MaxMinFairShare(caps, 100)
				if out[0] < 0 {
					b.Fatal("negative share")
				}
			}
		})
	}
}
