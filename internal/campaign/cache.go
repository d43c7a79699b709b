package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/metrics"
)

// CellResult is the persisted outcome of one cell: the run summary plus
// enough provenance to audit the cache by hand.
type CellResult struct {
	Key       string `json:"key"`
	Platform  string `json:"platform"`
	Scheduler string `json:"scheduler"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`

	Apps   int `json:"apps"`
	Events int `json:"events"`
	// Decisions counts scheduler invocations; Skipped counts decision
	// points the engine resolved without invoking the scheduler (see
	// sim.Result). Decisions+Skipped is the total decision-point count.
	Decisions int `json:"decisions"`
	Skipped   int `json:"skipped,omitempty"`
	// The per-reason breakdown of Skipped (they sum to it): decision
	// points resolved by the memoized-decision, saturating-allocation and
	// single-full-grant fast paths respectively.
	SkippedMemo            int `json:"skipped_memo,omitempty"`
	SkippedSaturating      int `json:"skipped_saturating,omitempty"`
	SkippedSingleFullGrant int `json:"skipped_single_full_grant,omitempty"`

	// BBPeakLevel/BBFullTime carry the burst-buffer pressure statistics
	// of sim.Result (zero for cells without a burst buffer).
	BBPeakLevel float64 `json:"bb_peak_gib,omitempty"`
	BBFullTime  float64 `json:"bb_full_s,omitempty"`

	Summary metrics.Summary `json:"summary"`

	// Telemetry summarizes the cell's congestion time series; present
	// only when the campaign enabled sampling (SimOptions.TelemetrySampleS
	// > 0).
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`

	// Anomalies counts detector firing transitions and HealthState is
	// the final aggregate verdict ("ok", "degraded", "critical");
	// present only when the campaign enabled health monitoring
	// (SimOptions.Health). The firing sequence is deterministic, so
	// these are cacheable like any other cell outcome.
	Anomalies   int    `json:"anomalies,omitempty"`
	HealthState string `json:"health_state,omitempty"`
}

// Cache is a content-addressed on-disk result store. Entries live at
// <dir>/objects/<key[:2]>/<key>.json; the key is the cell's content hash,
// so a changed platform, scheduler, workload, seed or engine behaviour is a
// different entry and a re-run of an unchanged cell is a hit. A nil
// *Cache is valid and never hits.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("campaign: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

func (c *Cache) objectPath(key string) string {
	return filepath.Join(c.dir, "objects", key[:2], key+".json")
}

// Get looks a cell result up by key. The boolean reports a hit; a
// corrupt entry is an error, not a miss, so silent recomputation never
// masks cache damage.
func (c *Cache) Get(key string) (*CellResult, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	b, err := os.ReadFile(c.objectPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var r CellResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, false, fmt.Errorf("campaign: corrupt cache entry %s: %w", key, err)
	}
	if r.Key != key {
		return nil, false, fmt.Errorf("campaign: cache entry %s holds key %s", key, r.Key)
	}
	return &r, true, nil
}

// Put stores a cell result. The write is atomic (temp file + rename) so
// a crashed run never leaves a torn entry behind.
func (c *Cache) Put(r *CellResult) error {
	if c == nil {
		return nil
	}
	path := c.objectPath(r.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+r.Key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Len counts the stored entries (a maintenance helper for list output).
func (c *Cache) Len() (int, error) {
	if c == nil {
		return 0, nil
	}
	n := 0
	err := filepath.WalkDir(filepath.Join(c.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// State records a campaign's progress in the cache directory, powering
// the resume and list subcommands.
type State struct {
	Name     string `json:"name"`
	SpecHash string `json:"spec_hash"`
	Cells    int    `json:"cells"`
	// Completed is the number of grid cells whose results were present
	// in the cache when the last run finished.
	Completed int `json:"completed"`
}

func (c *Cache) statePath(name string) string {
	return filepath.Join(c.dir, "campaigns", name+".json")
}

// SaveState persists a campaign's progress record.
func (c *Cache) SaveState(st *State) error {
	if c == nil {
		return nil
	}
	path := c.statePath(st.Name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadState reads one campaign's progress record; the boolean reports
// whether it exists.
func (c *Cache) LoadState(name string) (*State, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	b, err := os.ReadFile(c.statePath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, false, fmt.Errorf("campaign: corrupt state for %q: %w", name, err)
	}
	return &st, true, nil
}

// States lists every campaign recorded in the cache, sorted by name.
func (c *Cache) States() ([]*State, error) {
	if c == nil {
		return nil, nil
	}
	dir := filepath.Join(c.dir, "campaigns")
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*State
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		name := e.Name()[:len(e.Name())-len(".json")]
		st, ok, err := c.LoadState(name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, st)
		}
	}
	return out, nil
}
