package campaign

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Runner executes a campaign: probe the cache, fan the missing cells out
// over the worker pool, and stream completions into the cache and the
// aggregator.
type Runner struct {
	Spec *Spec
	// Cache is the on-disk result store; nil simulates everything.
	Cache *Cache
	// Workers bounds the shard parallelism (<= 0 selects GOMAXPROCS).
	Workers int
	// Log receives one line per cell (cache hit or simulated); nil
	// disables logging.
	Log io.Writer
}

// RunStats summarizes one execution.
type RunStats struct {
	Cells     int
	CacheHits int
	Simulated int
	Shards    int
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Run executes the campaign and returns its results and statistics.
func (r *Runner) Run() (*Results, *RunStats, error) {
	cells, err := r.Spec.Expand()
	if err != nil {
		return nil, nil, err
	}
	specHash := hashCells(cells)
	stats := &RunStats{Cells: len(cells)}
	results := make([]*CellResult, len(cells))

	// Probe the cache serially (cheap reads) so hit logging is ordered
	// and the executor only sees real work.
	var missed []*Cell
	for i := range cells {
		c := &cells[i]
		cached, hit, err := r.Cache.Get(c.Key)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			stats.CacheHits++
			results[c.Index] = cached
			r.logf("cache hit  %s", c.Name())
			continue
		}
		missed = append(missed, c)
	}
	shards := byShard(missed)
	stats.Shards = len(shards)

	// Record the campaign as started before simulating, so an
	// interrupted run is resumable and list/resume report real progress.
	if r.Cache != nil {
		st := &State{Name: r.Spec.Name, SpecHash: specHash, Cells: len(cells), Completed: stats.CacheHits}
		if err := r.Cache.SaveState(st); err != nil {
			return nil, nil, err
		}
	}

	// Fan the shards out; completions stream back serialized, so cache
	// writes and log lines never interleave.
	err = parallel.Stream(len(shards), r.Workers,
		func(i int) ([]*CellResult, error) {
			return runShard(shards[i], r.Spec.Sim, core.ByName)
		},
		func(i int, out []*CellResult, err error) error {
			if err != nil {
				return err
			}
			for j, res := range out {
				if err := r.Cache.Put(res); err != nil {
					return err
				}
				c := shards[i][j]
				results[c.Index] = res
				stats.Simulated++
				r.logf("simulated  %s", c.Name())
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}

	agg := NewAggregator()
	for i, res := range results {
		if res == nil {
			return nil, nil, fmt.Errorf("campaign: cell %s has no result", cells[i].Name())
		}
		agg.Add(i, res)
	}
	out := &Results{
		Name:     r.Spec.Name,
		SpecHash: specHash,
		Groups:   agg.Groups(),
		Cells:    results,
	}
	if r.Cache != nil {
		st := &State{Name: r.Spec.Name, SpecHash: specHash, Cells: len(cells), Completed: len(cells)}
		if err := r.Cache.SaveState(st); err != nil {
			return nil, nil, err
		}
	}
	return out, stats, nil
}

// byShard splits cells, in expansion order, into the executor's units of
// work: runs of cells that share one generated workload (same platform,
// workload spec and seed, schedulers varying).
func byShard(cells []*Cell) [][]*Cell {
	var out [][]*Cell
	for i, c := range cells {
		if i == 0 || c.shard != cells[i-1].shard {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], c)
	}
	return out
}

// runShard simulates one shard under opts, resolving each cell's
// scheduler through byName. Building the application mix once per
// shard amortizes workload construction and keeps every scheduler
// measured on the identical mix; the simulator never mutates the mix, so
// sequential reuse within the shard is safe. It needs no Runner and no
// cache: each result carries its cell's Key, empty or not.
func runShard(cells []*Cell, opts SimOptions, byName func(string) (core.Scheduler, error)) ([]*CellResult, error) {
	apps, err := cells[0].apps()
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", cells[0].Name(), err)
	}
	out := make([]*CellResult, 0, len(cells))
	for _, c := range cells {
		sched, err := byName(c.Scheduler)
		if err != nil {
			return nil, err
		}
		res, err := runCell(c, sched, apps, opts)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", c.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runCell simulates one cell on a pre-generated application mix.
func runCell(c *Cell, sched core.Scheduler, apps []*platform.App, opts SimOptions) (*CellResult, error) {
	var probe *telemetry.Probe
	if opts.TelemetrySampleS > 0 {
		probe = &telemetry.Probe{MinInterval: opts.TelemetrySampleS}
	}
	var mon *health.Monitor
	if opts.Health {
		mon = health.New(health.Config{})
	}
	res, err := sim.Run(sim.Config{
		Platform:       c.plat,
		Scheduler:      sched,
		Apps:           apps,
		UseBB:          opts.UseBB,
		RequestLatency: opts.RequestLatencyS,
		MaxTime:        opts.MaxTimeS,
		Telemetry:      probe,
		Health:         mon,
	})
	if err != nil {
		return nil, err
	}
	out := &CellResult{
		Key:       c.Key,
		Platform:  c.Platform,
		Scheduler: c.Scheduler,
		Workload:  c.Workload,
		Seed:      c.Seed,
		Apps:      len(res.Apps),
		Events:    res.Events,
		Decisions: res.Decisions,
		Skipped:   res.Skipped,

		SkippedMemo:            res.SkippedMemo,
		SkippedSaturating:      res.SkippedSaturating,
		SkippedSingleFullGrant: res.SkippedSingleFullGrant,

		BBPeakLevel: res.BBPeakLevel,
		BBFullTime:  res.BBFullTime,
		Summary:     res.Summary,
	}
	if res.Telemetry != nil {
		out.Telemetry = summarizeTelemetry(res, c.plat.Nodes)
	}
	if res.Health != nil {
		out.Anomalies = res.Anomalies
		out.HealthState = res.Health.State
	}
	return out, nil
}
