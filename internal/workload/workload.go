// Package workload generates synthetic application mixes following the
// paper's Darshan-based characterization of Intrepid (Section 4.1): three
// size categories, periodic compute/I-O patterns with a target
// I/O-to-computation ratio, optional per-instance variability
// ("sensibility", Section 4.3), and seeded congested-moment scenario sets
// standing in for the proprietary Intrepid and Mira logs (Section 4.4).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
)

// Category is the application size class from the paper's Intrepid
// analysis.
type Category int

const (
	// Small applications run on fewer than 1,284 nodes.
	Small Category = iota
	// Large applications run on 1,285 to 4,584 nodes.
	Large
	// VeryLarge applications run on more than 4,584 nodes.
	VeryLarge
)

func (c Category) String() string {
	switch c {
	case Small:
		return "small"
	case Large:
		return "large"
	case VeryLarge:
		return "very-large"
	}
	return "unknown"
}

// Categorize returns the category of an application by node count, using
// the paper's thresholds.
func Categorize(nodes int) Category {
	switch {
	case nodes <= 1284:
		return Small
	case nodes <= 4584:
		return Large
	default:
		return VeryLarge
	}
}

// NodeRange returns the node-count range the generator samples for a
// category.
func NodeRange(c Category) (lo, hi int) {
	switch c {
	case Small:
		return 128, 1284
	case Large:
		return 1285, 4584
	default:
		return 4585, 8192
	}
}

// Spec describes one group of applications to generate.
type Spec struct {
	Count    int
	Category Category
}

// Config drives the generator.
type Config struct {
	Platform *platform.Platform
	Seed     int64
	Specs    []Spec

	// IORatio is the mean ratio time_io / w of dedicated-mode I/O time to
	// computation per instance (the paper's "I/O over computation
	// ratio"). Each application draws its own ratio uniformly in
	// [IORatio·(1−IORatioSpread), IORatio·(1+IORatioSpread)].
	IORatio       float64
	IORatioSpread float64

	// WMin/WMax bound each application's base work per instance
	// (seconds), drawn uniformly.
	WMin, WMax float64

	// WQuantum, when positive, rounds the drawn work to a multiple of
	// this value (at least one quantum). Checkpointing applications
	// cluster around round checkpoint periods, which makes their I/O
	// bursts resonate — the mechanism behind severe congested moments.
	WQuantum float64

	// SensW is the work sensibility x of Section 4.3: instance i draws
	// w(k,i) ~ U[w, w·(1+x)]. Zero makes the application periodic.
	SensW float64
	// SensIO is the analogous volume sensibility.
	SensIO float64

	// TargetTime is the approximate dedicated-mode runtime of every
	// application; the instance count is derived from it (at least
	// MinInstances).
	TargetTime   float64
	MinInstances int

	// ReleaseSpread staggers releases uniformly in [0, ReleaseSpread].
	ReleaseSpread float64

	// Fill is the fraction of platform nodes the mix should occupy;
	// node counts are scaled down proportionally if the drawn mix
	// exceeds it. Zero means 1.0.
	Fill float64
}

func (c Config) withDefaults() Config {
	if c.WMin == 0 && c.WMax == 0 {
		c.WMin, c.WMax = 200, 1000
	}
	if c.WMax < c.WMin {
		c.WMax = c.WMin
	}
	if c.TargetTime == 0 {
		c.TargetTime = 10 * c.WMax
	}
	if c.MinInstances == 0 {
		c.MinInstances = 3
	}
	if c.Fill == 0 {
		c.Fill = 1.0
	}
	if c.IORatioSpread == 0 {
		c.IORatioSpread = 0.25
	}
	return c
}

// Generate builds an application mix. It is deterministic for a given
// configuration (including Seed).
func Generate(cfg Config) ([]*platform.App, error) {
	cfg = cfg.withDefaults()
	if cfg.Platform == nil {
		return nil, fmt.Errorf("workload: nil platform")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("workload: no specs")
	}
	if cfg.IORatio <= 0 {
		return nil, fmt.Errorf("workload: IORatio = %g, want > 0", cfg.IORatio)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Draw node counts per spec, then rescale to fit the platform.
	type draft struct {
		nodes int
		cat   Category
	}
	var drafts []draft
	total := 0
	for _, spec := range cfg.Specs {
		lo, hi := NodeRange(spec.Category)
		for i := 0; i < spec.Count; i++ {
			n := lo + rng.Intn(hi-lo+1)
			drafts = append(drafts, draft{nodes: n, cat: spec.Category})
			total += n
		}
	}
	budget := int(float64(cfg.Platform.Nodes) * cfg.Fill)
	if total > budget {
		scale := float64(budget) / float64(total)
		total = 0
		for i := range drafts {
			n := int(float64(drafts[i].nodes) * scale)
			if n < 1 {
				n = 1
			}
			drafts[i].nodes = n
			total += n
		}
	}
	if total > cfg.Platform.Nodes {
		return nil, fmt.Errorf("workload: mix needs %d nodes > platform %d", total, cfg.Platform.Nodes)
	}

	apps := make([]*platform.App, 0, len(drafts))
	for i, d := range drafts {
		w := uniform(rng, cfg.WMin, cfg.WMax)
		if cfg.WQuantum > 0 {
			n := int(w/cfg.WQuantum + 0.5)
			if n < 1 {
				n = 1
			}
			w = float64(n) * cfg.WQuantum
		}
		ratio := uniform(rng,
			cfg.IORatio*(1-cfg.IORatioSpread),
			cfg.IORatio*(1+cfg.IORatioSpread))
		if ratio <= 0 {
			ratio = cfg.IORatio
		}
		peak := cfg.Platform.PeakAppBW(d.nodes)
		vol := ratio * w * peak

		n := int(cfg.TargetTime / (w * (1 + ratio)))
		if n < cfg.MinInstances {
			n = cfg.MinInstances
		}

		app := &platform.App{
			ID:      i,
			Name:    fmt.Sprintf("%s-%d", d.cat, i),
			Nodes:   d.nodes,
			Release: uniform(rng, 0, cfg.ReleaseSpread),
		}
		for j := 0; j < n; j++ {
			wi, vi := w, vol
			if cfg.SensW > 0 {
				wi = uniform(rng, w, w*(1+cfg.SensW))
			}
			if cfg.SensIO > 0 {
				vi = uniform(rng, vol, vol*(1+cfg.SensIO))
			}
			app.Instances = append(app.Instances, platform.Instance{Work: wi, Volume: vi})
		}
		apps = append(apps, app)
	}
	return apps, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + float64(rng.Float64()*(hi-lo))
}

// ReplicateToFill clones randomly chosen applications from the observed set
// until the mix occupies at least fill·platform nodes. This models the
// paper's handling of Darshan's ~50% coverage: "we replicated known
// applications in order to simulate similar conditions to the usage of the
// system at the moment of congestion".
func ReplicateToFill(p *platform.Platform, observed []*platform.App, fill float64, seed int64) []*platform.App {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*platform.App, len(observed))
	copy(out, observed)
	used := 0
	maxID := 0
	for _, a := range out {
		used += a.Nodes
		if a.ID > maxID {
			maxID = a.ID
		}
	}
	want := int(fill * float64(p.Nodes))
	for used < want && len(observed) > 0 {
		src := observed[rng.Intn(len(observed))]
		if used+src.Nodes > p.Nodes {
			break
		}
		maxID++
		clone := src.CloneWithID(maxID)
		out = append(out, clone)
		used += src.Nodes
	}
	return out
}
