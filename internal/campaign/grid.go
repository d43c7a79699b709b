package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/platform"
	"repro/internal/workload"
)

// Cell is one point of the campaign grid: a fully resolved simulation to
// run.
type Cell struct {
	// Index is the cell's position in the deterministic expansion order
	// (platform-major, then workload, then seed, with schedulers
	// innermost so cells sharing a generated workload are adjacent).
	Index int

	Platform  string
	Scheduler string
	Workload  string
	Seed      int64

	// Key is the content hash of everything that determines the cell's
	// outcome; it addresses the result cache.
	Key string

	plat    *platform.Platform
	wcfg    workload.Config
	moments *MomentSpec
	shard   int
}

// apps builds the cell's application mix: its congested moment, or the
// mix its generator configuration draws.
func (c *Cell) apps() ([]*platform.App, error) {
	if c.moments != nil {
		return workload.CongestedMoment(c.plat, c.Platform, c.moments.SetSeed, int(c.Seed)).Apps, nil
	}
	return workload.Generate(c.wcfg)
}

// Name returns a human-readable cell identifier.
func (c Cell) Name() string {
	return fmt.Sprintf("%s/%s/seed%d/%s", c.Platform, c.Workload, c.Seed, c.Scheduler)
}

// cellContent is the canonical content of a cell hash. Engine is the
// behaviour fingerprint (engineFingerprint), so a change to what the
// simulator computes, or to this layout, changes every key.
type cellContent struct {
	Engine    string        `json:"engine"`
	Platform  fpPlatform    `json:"platform"`
	Scheduler string        `json:"scheduler"`
	Workload  fpWorkload    `json:"workload"`
	Seed      int64         `json:"seed"`
	Sim       SimOptions    `json:"sim"`
	BB        *fpBurstBuf   `json:"bb,omitempty"`
	Groups    []fpGroupSpec `json:"groups"`
	Moments   *MomentSpec   `json:"moments,omitempty"`
}

type fpPlatform struct {
	Nodes   int     `json:"nodes"`
	NodeBW  float64 `json:"node_bw"`
	TotalBW float64 `json:"total_bw"`
}

type fpBurstBuf struct {
	Capacity float64 `json:"capacity"`
	IngestBW float64 `json:"ingest_bw"`
}

type fpGroupSpec struct {
	Count    int `json:"count"`
	Category int `json:"category"`
}

type fpWorkload struct {
	IORatio       float64 `json:"io_ratio"`
	IORatioSpread float64 `json:"io_ratio_spread"`
	WMin          float64 `json:"w_min"`
	WMax          float64 `json:"w_max"`
	WQuantum      float64 `json:"w_quantum"`
	SensW         float64 `json:"sens_w"`
	SensIO        float64 `json:"sens_io"`
	TargetTime    float64 `json:"target_time"`
	MinInstances  int     `json:"min_instances"`
	ReleaseSpread float64 `json:"release_spread"`
	Fill          float64 `json:"fill"`
}

// cellKey hashes the resolved content of c under the given engine
// fingerprint; a moment cell's is its moment's (platform, set seed, seed).
func cellKey(engine string, c *Cell, sim SimOptions) string {
	p, wcfg := c.plat, c.wcfg
	fp := cellContent{
		Engine:    engine,
		Platform:  fpPlatform{Nodes: p.Nodes, NodeBW: p.NodeBW, TotalBW: p.TotalBW},
		Scheduler: c.Scheduler,
		Workload: fpWorkload{
			IORatio:       wcfg.IORatio,
			IORatioSpread: wcfg.IORatioSpread,
			WMin:          wcfg.WMin,
			WMax:          wcfg.WMax,
			WQuantum:      wcfg.WQuantum,
			SensW:         wcfg.SensW,
			SensIO:        wcfg.SensIO,
			TargetTime:    wcfg.TargetTime,
			MinInstances:  wcfg.MinInstances,
			ReleaseSpread: wcfg.ReleaseSpread,
			Fill:          wcfg.Fill,
		},
		Seed:    c.Seed,
		Sim:     sim,
		Moments: c.moments,
	}
	if sim.UseBB && p.BurstBuffer != nil {
		fp.BB = &fpBurstBuf{Capacity: p.BurstBuffer.Capacity, IngestBW: p.BurstBuffer.IngestBW}
	}
	for _, g := range wcfg.Specs {
		fp.Groups = append(fp.Groups, fpGroupSpec{Count: g.Count, Category: int(g.Category)})
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// cellContent contains only marshalable scalar fields.
		panic(fmt.Sprintf("campaign: cell content: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Expand resolves the spec into its deterministic cell grid, each cell
// keyed under the behaviour fingerprint. Cells sharing a (platform,
// workload, seed) shard are adjacent and carry the same shard number, so
// the executor can generate each workload once and run every scheduler
// on it.
func (s *Spec) Expand() ([]Cell, error) {
	engine, err := engineFingerprint()
	if err != nil {
		return nil, err
	}
	cells, err := s.cells()
	if err != nil {
		return nil, err
	}
	for i := range cells {
		c := &cells[i]
		c.Key = cellKey(engine, c, s.Sim)
	}
	return cells, nil
}

// cells is Expand without the keys.
func (s *Spec) cells() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plats := make([]*platform.Platform, len(s.Platforms))
	for i, ps := range s.Platforms {
		p, err := ps.resolve()
		if err != nil {
			return nil, err
		}
		if !s.Sim.UseBB {
			p = p.WithoutBB()
		}
		plats[i] = p
	}
	seeds := s.Seeds.Values()

	cells := make([]Cell, 0, len(plats)*len(s.Workloads)*len(seeds)*len(s.Schedulers))
	shard := 0
	for _, p := range plats {
		for _, w := range s.Workloads {
			for _, seed := range seeds {
				wcfg, err := w.config(p, seed)
				if err != nil {
					return nil, err
				}
				for _, sched := range s.Schedulers {
					cells = append(cells, Cell{
						Index:     len(cells),
						Platform:  p.Name,
						Scheduler: sched,
						Workload:  w.Name,
						Seed:      seed,
						plat:      p,
						wcfg:      wcfg,
						moments:   w.Moments,
						shard:     shard,
					})
				}
				shard++
			}
		}
	}
	return cells, nil
}

// Hash identifies the whole grid: the hash of all cell keys in order.
// Two specs with the same hash simulate exactly the same cells.
func (s *Spec) Hash() (string, error) {
	cells, err := s.Expand()
	if err != nil {
		return "", err
	}
	return hashCells(cells), nil
}

// hashCells reduces an expanded grid to its identifying hash.
func hashCells(cells []Cell) string {
	h := sha256.New()
	for _, c := range cells {
		h.Write([]byte(c.Key))
	}
	return hex.EncodeToString(h.Sum(nil))
}
