// Package trace implements a Darshan-like application-level I/O
// characterization log (Section 4.1 of the paper): one record per job with
// its node count, runtime, I/O volume and phase structure, serialized as
// JSON lines. It also provides the two operations the paper performs on
// such logs: subsetting to Darshan's ~50% coverage and extracting
// congested time windows.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/platform"
)

// JobRecord is one characterized job, the unit of a trace file. It carries
// what Darshan reports (totals) plus the phase structure our generator
// knows (instances), mirroring the paper's reconstruction step: "we choose
// to enforce application periodicity by considering that these
// applications have a fixed number of iterations, each of a constant
// execution time and I/O volume".
type JobRecord struct {
	JobID int    `json:"job_id"`
	App   string `json:"app"`
	Nodes int    `json:"nodes"`

	// Start and End are wall-clock seconds since the trace origin.
	Start float64 `json:"start"`
	End   float64 `json:"end"`

	// BytesWritten is the job's total I/O volume in GiB.
	BytesWritten float64 `json:"bytes_written_gib"`

	// Instances is the reconstructed phase count; WorkPerInstance and
	// VolumePerInstance describe the periodic pattern.
	Instances         int     `json:"instances"`
	WorkPerInstance   float64 `json:"work_per_instance_s"`
	VolumePerInstance float64 `json:"volume_per_instance_gib"`
}

// Validate reports whether the record is internally consistent.
func (r JobRecord) Validate() error {
	switch {
	case r.Nodes <= 0:
		return fmt.Errorf("trace: job %d: nodes = %d", r.JobID, r.Nodes)
	case r.End < r.Start:
		return fmt.Errorf("trace: job %d: end %g before start %g", r.JobID, r.End, r.Start)
	case r.Instances < 0:
		return fmt.Errorf("trace: job %d: instances = %d", r.JobID, r.Instances)
	case r.BytesWritten < 0:
		return fmt.Errorf("trace: job %d: bytes = %g", r.JobID, r.BytesWritten)
	}
	return nil
}

// IOFraction returns the fraction of the job's dedicated runtime spent in
// I/O on the given platform (used for the Figure 5 style reports).
func (r JobRecord) IOFraction(p *platform.Platform) float64 {
	if r.Instances == 0 {
		return 0
	}
	tio := r.VolumePerInstance / p.PeakAppBW(r.Nodes)
	den := r.WorkPerInstance + tio
	if den <= 0 {
		return 0
	}
	return tio / den
}

// Write serializes records as JSON lines.
func Write(w io.Writer, recs []JobRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines trace. Malformed lines are reported with their
// line number.
func Read(r io.Reader) ([]JobRecord, error) {
	var recs []JobRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return recs, nil
}

// ToApp converts a record into a simulator application released at the
// job's start time.
func (r JobRecord) ToApp(id int) *platform.App {
	a := platform.NewPeriodic(id, r.Nodes, r.WorkPerInstance, r.VolumePerInstance, max(1, r.Instances))
	a.Name = fmt.Sprintf("%s-%d", r.App, r.JobID)
	a.Release = r.Start
	return a
}

// FromApp builds the record a Darshan-style tool would report for an
// application that ran from release to finish.
func FromApp(a *platform.App, jobID int, finish float64) JobRecord {
	rec := JobRecord{
		JobID:        jobID,
		App:          a.Name,
		Nodes:        a.Nodes,
		Start:        a.Release,
		End:          finish,
		BytesWritten: a.TotalVolume(),
		Instances:    len(a.Instances),
	}
	if len(a.Instances) > 0 {
		rec.WorkPerInstance = a.TotalWork() / float64(len(a.Instances))
		rec.VolumePerInstance = a.TotalVolume() / float64(len(a.Instances))
	}
	return rec
}

// CoverageSubset returns a random subset of the records covering
// approximately the given fraction of the total node-hours, modeling
// Darshan's partial coverage ("they only record around 50% of all the
// applications running in the system").
func CoverageSubset(recs []JobRecord, frac float64, seed int64) []JobRecord {
	if frac >= 1 {
		out := make([]JobRecord, len(recs))
		copy(out, recs)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(recs))
	var total, kept float64
	for _, r := range recs {
		total += float64(r.Nodes) * (r.End - r.Start)
	}
	var out []JobRecord
	for _, i := range perm {
		if kept >= frac*total {
			break
		}
		out = append(out, recs[i])
		kept += float64(recs[i].Nodes) * (recs[i].End - recs[i].Start)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].JobID < out[b].JobID })
	return out
}

// Window is a time interval during which the aggregate I/O demand of
// running jobs exceeded a bandwidth threshold — a congested moment.
type Window struct {
	Start, End float64
	// Jobs indexes the records running during the window.
	Jobs []int
	// PeakDemand is the maximum aggregate dedicated-mode I/O bandwidth
	// demand inside the window (GiB/s).
	PeakDemand float64
}

// FindCongestedWindows scans the trace and returns maximal windows where
// the aggregate steady-state I/O demand of the running jobs exceeds
// threshold·B. A job's steady-state demand is its average I/O bandwidth
// over its dedicated runtime: volume / duration scaled to its I/O phases.
func FindCongestedWindows(recs []JobRecord, p *platform.Platform, threshold float64) []Window {
	type edge struct {
		t     float64
		job   int
		start bool
	}
	var edges []edge
	demand := make([]float64, len(recs))
	for i, r := range recs {
		dur := r.End - r.Start
		if dur <= 0 {
			continue
		}
		// Average demand: the job wants its whole volume through its
		// runtime; during bursts it asks for the full card bandwidth,
		// so weight by the burst concentration (fraction of time in
		// I/O at peak bandwidth).
		demand[i] = r.BytesWritten / dur / maxf(r.IOFraction(p), 1e-6)
		if peak := p.PeakAppBW(r.Nodes); demand[i] > peak {
			demand[i] = peak
		}
		edges = append(edges, edge{r.Start, i, true}, edge{r.End, i, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return !edges[a].start && edges[b].start // ends before starts
	})
	limit := threshold * p.TotalBW
	active := make(map[int]bool)
	var cur float64
	var out []Window
	var open *Window
	for _, e := range edges {
		if e.start {
			active[e.job] = true
			cur += demand[e.job]
		} else {
			delete(active, e.job)
			cur -= demand[e.job]
		}
		if cur > limit && open == nil {
			w := Window{Start: e.t, PeakDemand: cur}
			for j := range active {
				w.Jobs = append(w.Jobs, j)
			}
			open = &w
		} else if open != nil {
			if cur > open.PeakDemand {
				open.PeakDemand = cur
			}
			if e.start {
				open.Jobs = appendUnique(open.Jobs, e.job)
			}
			if cur <= limit {
				open.End = e.t
				sort.Ints(open.Jobs)
				out = append(out, *open)
				open = nil
			}
		}
	}
	if open != nil {
		open.End = edges[len(edges)-1].t
		sort.Ints(open.Jobs)
		out = append(out, *open)
	}
	return out
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
