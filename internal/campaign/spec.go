// Package campaign is the scenario-sweep engine: a declarative campaign
// spec (Go API and JSON file format) expands into a grid of simulation
// cells — one cell per (platform, scheduler policy, workload scenario,
// seed) tuple — that a sharded executor fans out over a bounded worker
// pool. Cell results are content-addressed in an on-disk cache keyed by a
// hash of everything that determines the outcome, so re-running a grown
// campaign only simulates the new cells, and a streaming aggregator
// reduces per-cell summaries into per-group statistics (mean/p95
// dilation, system efficiency, makespan) with table/CSV/JSON emitters.
//
// The paper's evaluation is exactly such a sweep (heuristic × platform ×
// workload mix × seed, Section 4); internal/experiments re-expresses its
// Figure 6 drivers on top of this package, and cmd/iocampaign is the
// user-facing entry point for new grids.
package campaign

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Spec declares a campaign: the four axes of the grid plus shared
// simulation options. Every combination of platform × scheduler ×
// workload × seed becomes one cell.
type Spec struct {
	// Name identifies the campaign (cache state files, report titles).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Platforms  []PlatformSpec `json:"platforms"`
	Schedulers []string       `json:"schedulers"`
	Workloads  []WorkloadSpec `json:"workloads"`
	Seeds      SeedRange      `json:"seeds"`

	Sim SimOptions `json:"sim,omitempty"`
}

// PlatformSpec selects a machine: a named preset ("intrepid", "mira",
// "vesta"), optionally with overridden capacities, or a fully custom
// machine when Preset is empty. Name labels the platform in groups and
// reports; it defaults to the preset name.
type PlatformSpec struct {
	Preset string `json:"preset,omitempty"`
	Name   string `json:"name,omitempty"`

	Nodes   int     `json:"nodes,omitempty"`
	NodeBW  float64 `json:"node_bw_gibs,omitempty"`
	TotalBW float64 `json:"total_bw_gibs,omitempty"`

	// BurstBuffer overrides (or, for a custom machine, defines) the
	// platform's staging tier. It only matters when Sim.UseBB is set.
	BurstBuffer *BurstBufferSpec `json:"burst_buffer,omitempty"`
}

// BurstBufferSpec describes a staging tier.
type BurstBufferSpec struct {
	CapacityGiB float64 `json:"capacity_gib"`
	IngestBW    float64 `json:"ingest_bw_gibs"`
}

// resolve builds the concrete platform.
func (ps PlatformSpec) resolve() (*platform.Platform, error) {
	var p *platform.Platform
	if ps.Preset != "" {
		preset, ok := platform.Presets()[ps.Preset]
		if !ok {
			return nil, fmt.Errorf("campaign: unknown platform preset %q", ps.Preset)
		}
		p = preset
	} else {
		p = &platform.Platform{}
	}
	if ps.Name != "" {
		p.Name = ps.Name
	}
	if ps.Nodes > 0 {
		p.Nodes = ps.Nodes
	}
	if ps.NodeBW > 0 {
		p.NodeBW = ps.NodeBW
	}
	if ps.TotalBW > 0 {
		p.TotalBW = ps.TotalBW
	}
	if ps.BurstBuffer != nil {
		p.BurstBuffer = &platform.BurstBuffer{
			Capacity: ps.BurstBuffer.CapacityGiB,
			IngestBW: ps.BurstBuffer.IngestBW,
		}
	}
	if p.Name == "" {
		return nil, fmt.Errorf("campaign: platform needs a preset or a name")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WorkloadSpec describes one workload axis value: a paper scenario, a
// custom generator configuration or congested moments. The cell's
// platform and seed are substituted in at expansion time.
type WorkloadSpec struct {
	Name string `json:"name"`
	// Scenario selects a paper scenario: "fig6a" (10 large, I/O ratio
	// 20%), "fig6b" (50 small + 5 large, 20%), "fig6c" (50 small + 5
	// large, 35%).
	Scenario string `json:"scenario,omitempty"`
	// Generator configures a custom synthetic mix (exclusive with
	// Scenario).
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// Moments selects congested moments (exclusive with both): the
	// cell's seed is the moment index, so groups average over moments.
	Moments *MomentSpec `json:"moments,omitempty"`
}

// MomentSpec selects a congested-moment set: the cell with seed i runs
// moment i of the set drawn for the cell's platform from SetSeed
// (workload.CongestedMoment).
type MomentSpec struct {
	SetSeed int64 `json:"set_seed"`
}

// momentPresets are the platform presets with a congested-moment set:
// the machines whose logs the paper's moments come from (Section 4.4).
// A capacity override makes another machine, which has none; a burst
// buffer override does not change the moments.
var momentPresets = map[string]bool{"intrepid": true, "mira": true}

// GeneratorSpec mirrors workload.Config for the JSON format; the
// platform and seed come from the cell.
type GeneratorSpec struct {
	Groups []GroupSpec `json:"groups"`

	IORatio       float64 `json:"io_ratio"`
	IORatioSpread float64 `json:"io_ratio_spread,omitempty"`

	WMinS     float64 `json:"w_min_s,omitempty"`
	WMaxS     float64 `json:"w_max_s,omitempty"`
	WQuantumS float64 `json:"w_quantum_s,omitempty"`

	SensW  float64 `json:"sens_w,omitempty"`
	SensIO float64 `json:"sens_io,omitempty"`

	TargetTimeS  float64 `json:"target_time_s,omitempty"`
	MinInstances int     `json:"min_instances,omitempty"`

	ReleaseSpreadS float64 `json:"release_spread_s,omitempty"`
	Fill           float64 `json:"fill,omitempty"`
}

// GroupSpec is one application group to draw.
type GroupSpec struct {
	Count    int    `json:"count"`
	Category string `json:"category"` // "small" | "large" | "very-large"
}

func parseCategory(s string) (workload.Category, error) {
	switch s {
	case "small":
		return workload.Small, nil
	case "large":
		return workload.Large, nil
	case "very-large":
		return workload.VeryLarge, nil
	}
	return 0, fmt.Errorf("campaign: unknown category %q (want small, large or very-large)", s)
}

var fig6Kinds = map[string]workload.Fig6Kind{
	"fig6a": workload.Fig6A,
	"fig6b": workload.Fig6B,
	"fig6c": workload.Fig6C,
}

// config resolves the workload axis value into a generator configuration
// for one cell; a moments workload has none.
func (w WorkloadSpec) config(p *platform.Platform, seed int64) (workload.Config, error) {
	if w.Moments != nil {
		return workload.Config{}, nil // see Cell.apps
	}
	if w.Scenario != "" {
		kind, ok := fig6Kinds[w.Scenario]
		if !ok {
			return workload.Config{}, fmt.Errorf("campaign: unknown scenario %q", w.Scenario)
		}
		cfg := workload.Fig6Config(kind, seed)
		cfg.Platform = p
		return cfg, nil
	}
	g := w.Generator
	if g == nil {
		return workload.Config{}, fmt.Errorf("campaign: workload %q has neither scenario nor generator", w.Name)
	}
	if len(g.Groups) == 0 {
		return workload.Config{}, fmt.Errorf("campaign: workload %q has no groups", w.Name)
	}
	if g.IORatio <= 0 {
		return workload.Config{}, fmt.Errorf("campaign: workload %q: io_ratio = %g, want > 0", w.Name, g.IORatio)
	}
	cfg := workload.Config{
		Platform:      p,
		Seed:          seed,
		IORatio:       g.IORatio,
		IORatioSpread: g.IORatioSpread,
		WMin:          g.WMinS,
		WMax:          g.WMaxS,
		WQuantum:      g.WQuantumS,
		SensW:         g.SensW,
		SensIO:        g.SensIO,
		TargetTime:    g.TargetTimeS,
		MinInstances:  g.MinInstances,
		ReleaseSpread: g.ReleaseSpreadS,
		Fill:          g.Fill,
	}
	for _, grp := range g.Groups {
		cat, err := parseCategory(grp.Category)
		if err != nil {
			return workload.Config{}, err
		}
		if grp.Count <= 0 {
			return workload.Config{}, fmt.Errorf("campaign: workload %q: group count %d, want > 0", w.Name, grp.Count)
		}
		cfg.Specs = append(cfg.Specs, workload.Spec{Count: grp.Count, Category: cat})
	}
	return cfg, nil
}

// SeedRange is the seed axis: Count seeds starting at Start, Stride
// apart (default 1).
type SeedRange struct {
	Start  int64 `json:"start"`
	Count  int   `json:"count"`
	Stride int64 `json:"stride,omitempty"`
}

// Values returns the expanded seeds.
func (r SeedRange) Values() []int64 {
	stride := r.Stride
	if stride == 0 {
		stride = 1
	}
	out := make([]int64, 0, r.Count)
	for i := 0; i < r.Count; i++ {
		out = append(out, r.Start+int64(i)*stride)
	}
	return out
}

// SimOptions are shared simulator settings applied to every cell.
type SimOptions struct {
	// UseBB routes writes through the platform's burst buffer. Cells on
	// platforms without one fail expansion. When false, any burst buffer
	// is stripped (the paper runs its heuristics without them).
	UseBB bool `json:"use_burst_buffer,omitempty"`
	// RequestLatencyS is the scheduler round-trip cost (Section 5.1);
	// zero models an oracle scheduler.
	RequestLatencyS float64 `json:"request_latency_s,omitempty"`
	// MaxTimeS aborts runaway cells; zero derives a generous default
	// from the workload.
	MaxTimeS float64 `json:"max_time_s,omitempty"`
	// TelemetrySampleS, when positive, attaches a telemetry probe to
	// every cell (internal/telemetry), sampling the congestion series at
	// this minimum simulated-time spacing; each cell result then carries
	// a TelemetrySummary. Zero (the default) disables sampling, which is
	// free.
	TelemetrySampleS float64 `json:"telemetry_sample_s,omitempty"`
	// Health, when true, attaches an anomaly-detector monitor
	// (internal/health, default thresholds) to every cell; each cell
	// result then records its anomaly count and final health state.
	// False (the default) disables monitoring, which is free.
	Health bool `json:"health,omitempty"`
}

// Validate checks the spec without expanding it.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Platforms) == 0 {
		return fmt.Errorf("campaign %q: no platforms", s.Name)
	}
	if len(s.Schedulers) == 0 {
		return fmt.Errorf("campaign %q: no schedulers", s.Name)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign %q: no workloads", s.Name)
	}
	if s.Seeds.Count <= 0 {
		return fmt.Errorf("campaign %q: seed count %d, want > 0", s.Name, s.Seeds.Count)
	}
	if s.Sim.TelemetrySampleS < 0 {
		return fmt.Errorf("campaign %q: telemetry_sample_s %g, want >= 0", s.Name, s.Sim.TelemetrySampleS)
	}
	seenP := map[string]bool{}
	for _, ps := range s.Platforms {
		p, err := ps.resolve()
		if err != nil {
			return fmt.Errorf("campaign %q: %w", s.Name, err)
		}
		if seenP[p.Name] {
			return fmt.Errorf("campaign %q: duplicate platform label %q", s.Name, p.Name)
		}
		seenP[p.Name] = true
		if s.Sim.UseBB && p.BurstBuffer == nil {
			return fmt.Errorf("campaign %q: use_burst_buffer set but platform %q has none", s.Name, p.Name)
		}
	}
	seenS := map[string]bool{}
	for _, name := range s.Schedulers {
		if _, err := core.ByName(name); err != nil {
			return fmt.Errorf("campaign %q: %w", s.Name, err)
		}
		if seenS[name] {
			return fmt.Errorf("campaign %q: duplicate scheduler %q", s.Name, name)
		}
		seenS[name] = true
	}
	seenW := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" {
			return fmt.Errorf("campaign %q: workload needs a name", s.Name)
		}
		if seenW[w.Name] {
			return fmt.Errorf("campaign %q: duplicate workload %q", s.Name, w.Name)
		}
		seenW[w.Name] = true
		if w.Moments != nil {
			if w.Scenario != "" || w.Generator != nil {
				return fmt.Errorf("campaign %q: workload %q sets moments with a scenario or generator", s.Name, w.Name)
			}
			for _, ps := range s.Platforms {
				if !momentPresets[ps.Preset] || ps.Nodes != 0 || ps.NodeBW != 0 || ps.TotalBW != 0 {
					return fmt.Errorf("campaign %q: workload %q: platform %q has no congested-moment set", s.Name, w.Name, cmp.Or(ps.Name, ps.Preset))
				}
			}
			if v := s.Seeds.Values(); min(v[0], v[len(v)-1]) < 0 {
				return fmt.Errorf("campaign %q: workload %q: negative seeds are not moment indices", s.Name, w.Name)
			}
		}
		if w.Scenario != "" && w.Generator != nil {
			return fmt.Errorf("campaign %q: workload %q sets both scenario and generator", s.Name, w.Name)
		}
		// Resolve against a throwaway platform to surface config errors
		// at validation time rather than mid-sweep.
		if _, err := w.config(platform.Intrepid(), 0); err != nil {
			return err
		}
	}
	return nil
}

// Load reads and validates a JSON spec file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return &s, nil
}
