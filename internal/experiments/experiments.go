// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation (Sections 4 and 5), shared by the
// iosim CLI and the repository's benchmark suite. Each experiment builds
// its workload, runs the simulator or the cluster emulator across the
// relevant schedulers, and renders the same rows/series the paper reports.
//
// Grid-shaped artifacts (Figures 6–13, Tables 1–2, verify's moment
// claims, the gamma/priority/burst-buffer ablations) run as
// internal/campaign specs; a congested-moment grid's seed is the moment
// index. The rest need per-application results, traces or the cluster
// emulator, which a campaign cell does not keep.
//
// `iosim -list` prints the experiment index; the verify experiment checks
// the paper's qualitative claims against live runs.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/report"
)

// Config controls an experiment run. The zero value selects the paper's
// full parameters; Quick shrinks replicate counts and iteration counts to
// keep test and benchmark runs fast.
type Config struct {
	// Quick reduces replicates, moment counts and benchmark iterations.
	Quick bool
	// Seed offsets every seeded generator; runs with equal seeds print
	// identical numbers.
	Seed int64
	// Replicates overrides the number of random mixes averaged in the
	// Figure 6/7 studies (paper: 200).
	Replicates int
	// IntrepidMoments and MiraMoments override the congested-moment set
	// sizes (paper: 56 and 11).
	IntrepidMoments int
	MiraMoments     int
	// Workers bounds the parallelism of replicate fan-out (default:
	// GOMAXPROCS).
	Workers int
}

func (c Config) replicates() int {
	if c.Replicates > 0 {
		return c.Replicates
	}
	if c.Quick {
		return 20
	}
	return 200
}

func (c Config) intrepidMoments() int {
	if c.IntrepidMoments > 0 {
		return c.IntrepidMoments
	}
	if c.Quick {
		return 12
	}
	return 56
}

func (c Config) miraMoments() int {
	if c.MiraMoments > 0 {
		return c.MiraMoments
	}
	if c.Quick {
		return 6
	}
	return 11
}

// Runner executes one experiment.
type Runner func(Config) (*Document, error)

// Document aliases report.Document for caller convenience.
type Document = report.Document

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper references the artifact being reproduced.
	Paper string
	Run   Runner
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks an experiment up by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
