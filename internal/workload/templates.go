package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
)

// Template models one of the periodic production codes the paper verified
// on Intrepid (Section 4.1): "the gyrokinetic toroidal code (GTC), Enzo,
// HACC and CM1", plus S3D and HOMME whose periodic restart writes Carns
// et al. observed with Darshan. The parameters are order-of-magnitude
// characterizations (output volume scales with the allocation; the
// compute period is the application's restart/analysis cadence), enough
// to generate realistic mixes — the heuristics only consume (β, w, vol)
// tuples.
type Template struct {
	Name        string
	Description string

	// MinNodes and MaxNodes bound typical allocations.
	MinNodes, MaxNodes int

	// Period is the typical computation time between outputs (seconds);
	// PeriodSpread is the relative draw range around it.
	Period       float64
	PeriodSpread float64

	// VolumePerNode is the GiB written per node per output (restart
	// and/or analysis dump).
	VolumePerNode float64

	// Outputs is the typical number of output phases per job.
	Outputs int
}

// Templates returns the built-in application models.
func Templates() []Template {
	return []Template{
		{
			Name:        "S3D",
			Description: "direct numerical simulation of turbulent combustion; periodic MPI-IO restart files",
			MinNodes:    1024, MaxNodes: 8192,
			Period: 1200, PeriodSpread: 0.3,
			VolumePerNode: 0.35,
			Outputs:       12,
		},
		{
			Name:        "HOMME",
			Description: "spectral-element atmosphere dynamics; periodic restart writes",
			MinNodes:    512, MaxNodes: 4096,
			Period: 900, PeriodSpread: 0.25,
			VolumePerNode: 0.20,
			Outputs:       16,
		},
		{
			Name:        "GTC",
			Description: "gyrokinetic toroidal code; particle checkpoint dumps",
			MinNodes:    512, MaxNodes: 4096,
			Period: 600, PeriodSpread: 0.2,
			VolumePerNode: 0.45,
			Outputs:       20,
		},
		{
			Name:        "Enzo",
			Description: "adaptive mesh refinement astrophysics; hierarchical data dumps",
			MinNodes:    256, MaxNodes: 2048,
			Period: 1500, PeriodSpread: 0.4,
			VolumePerNode: 0.30,
			Outputs:       8,
		},
		{
			Name:        "HACC",
			Description: "cosmology N-body; very large particle checkpoints",
			MinNodes:    2048, MaxNodes: 16384,
			Period: 1800, PeriodSpread: 0.3,
			VolumePerNode: 0.60,
			Outputs:       6,
		},
		{
			Name:        "CM1",
			Description: "cloud-resolving atmospheric model; periodic history files",
			MinNodes:    128, MaxNodes: 1024,
			Period: 450, PeriodSpread: 0.2,
			VolumePerNode: 0.15,
			Outputs:       30,
		},
	}
}

// Instantiate draws one concrete application from the template. nodes == 0
// draws an allocation from the template's range.
func (t Template) Instantiate(id, nodes int, seed int64) *platform.App {
	rng := rand.New(rand.NewSource(seed))
	if nodes == 0 {
		nodes = t.MinNodes + rng.Intn(t.MaxNodes-t.MinNodes+1)
	}
	w := uniform(rng, t.Period*(1-t.PeriodSpread), t.Period*(1+t.PeriodSpread))
	vol := t.VolumePerNode * float64(nodes)
	app := platform.NewPeriodic(id, nodes, w, vol, t.Outputs)
	app.Name = fmt.Sprintf("%s-%d", t.Name, id)
	return app
}
