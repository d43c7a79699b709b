// Package cluster is a rank-level emulator of the paper's Section 5
// experimental setup on Argonne's Vesta: a modified IOR benchmark whose
// process groups run as separate applications, with one scheduler server
// receiving I/O requests, an MPI_Reduce added at each step to synchronize
// phases, and a shared parallel file system (optionally fronted by burst
// buffers).
//
// The emulator runs on the deterministic discrete-event engine
// (internal/des) at message granularity: every rank's compute completion,
// every hop of the binomial reduce tree, every scheduler request/grant
// round-trip and every file-system rate change is an event. The measured
// quantities — scheduler-thread overhead (Figure 14), system efficiency and
// dilation per scenario (Figure 15), per-application dilation (Figure 16) —
// all derive from these message timings and from bandwidth sharing, which
// is why the emulator reproduces the experiment's shape without BlueGene
// hardware.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// Mode selects which benchmark variant runs.
type Mode int

const (
	// OriginalIOR is the unmodified benchmark: no reduce, no scheduler;
	// every rank writes its block independently and the file system
	// shares bandwidth max-min among rank streams.
	OriginalIOR Mode = iota
	// AlwaysGrant is the modified benchmark with the scheduler thread
	// answering every request immediately (used to measure the pure
	// overhead of the scheduler machinery, Figure 14): applications pay
	// the reduce and the request round-trip but contention is still
	// resolved by the file system.
	AlwaysGrant
	// Scheduled is the modified benchmark with a real scheduling policy
	// deciding bandwidth grants.
	Scheduled
)

func (m Mode) String() string {
	switch m {
	case OriginalIOR:
		return "original-ior"
	case AlwaysGrant:
		return "always-grant"
	case Scheduled:
		return "scheduled"
	}
	return "unknown"
}

// AppConfig describes one IOR process group acting as an application.
type AppConfig struct {
	ID         int
	Name       string
	Ranks      int     // one rank per node
	Iterations int     // instances
	Work       float64 // seconds of compute per iteration
	BlockGiB   float64 // per-rank volume written per iteration
}

// Volume returns the application's aggregate volume per iteration.
func (a AppConfig) Volume() float64 { return float64(a.Ranks) * a.BlockGiB }

// Config describes one emulator run.
type Config struct {
	Platform *platform.Platform
	Mode     Mode
	// Policy is the scheduling policy for Scheduled mode (ignored
	// otherwise).
	Policy core.Scheduler
	UseBB  bool
	Apps   []AppConfig

	// MsgLatency is the per-hop network latency (reduce tree hops and
	// result broadcast), seconds. Default 1 ms.
	MsgLatency float64
	// ReqLatency is the one-way latency of a scheduler request or grant
	// message. Default 5 ms.
	ReqLatency float64
	// ProcTime is the scheduler server's serialized processing time per
	// request. Default 1 ms.
	ProcTime float64
	// ComputeJitter is the per-rank per-iteration compute-time spread:
	// each rank's compute takes Work·(1+U[0,Jitter)). The added
	// MPI_Reduce synchronizes on the slowest rank, which is the dominant
	// component of the measured scheduler overhead. Default 0.04.
	ComputeJitter float64

	// SharedNetwork models machines where I/O and communication share
	// the interconnect (Blue Waters, in the paper's conclusion) instead
	// of Intrepid/Mira's dedicated I/O network: message latencies
	// inflate with the file system's current utilization, by a factor
	// (1 + NetContention·utilization).
	SharedNetwork bool
	// NetContention is the inflation coefficient κ; default 1 when
	// SharedNetwork is set.
	NetContention float64

	// Seed varies the deterministic jitter stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MsgLatency == 0 {
		c.MsgLatency = 1e-3
	}
	if c.ReqLatency == 0 {
		c.ReqLatency = 5e-3
	}
	if c.ProcTime == 0 {
		c.ProcTime = 1e-3
	}
	if c.ComputeJitter == 0 {
		c.ComputeJitter = 0.04
	}
	if c.SharedNetwork && c.NetContention == 0 {
		c.NetContention = 1
	}
	return c
}

// Result is the outcome of one emulator run.
type Result struct {
	Apps []metrics.AppPerf
	// Summary normalizes SysEfficiency by the engaged nodes Σβ(k)
	// (Vesta scenarios rarely fill the machine; the paper's Figure 15
	// values are normalized this way).
	Summary  metrics.Summary
	Makespan float64

	// Messages counts every network message (reduce hops, broadcasts
	// counted per hop, scheduler RPCs).
	Messages int
	// SchedRequests and SchedDecisions count scheduler server activity.
	SchedRequests  int
	SchedDecisions int
	// Events is the number of simulation events executed.
	Events uint64

	BBPeakLevel float64
	BBFullTime  float64
}

// Run executes one emulator run.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Platform == nil {
		return nil, errors.New("cluster: nil platform")
	}
	if len(cfg.Apps) == 0 {
		return nil, errors.New("cluster: no applications")
	}
	if cfg.Mode == Scheduled && cfg.Policy == nil {
		return nil, errors.New("cluster: Scheduled mode needs a policy")
	}
	if cfg.UseBB && cfg.Platform.BurstBuffer == nil {
		return nil, fmt.Errorf("cluster: UseBB set but platform %q has no burst buffer", cfg.Platform.Name)
	}
	total := 0
	for _, a := range cfg.Apps {
		if a.Ranks <= 0 || a.Iterations <= 0 || a.Work < 0 || a.BlockGiB < 0 {
			return nil, fmt.Errorf("cluster: invalid app config %+v", a)
		}
		total += a.Ranks
	}
	if total > cfg.Platform.Nodes {
		return nil, fmt.Errorf("cluster: %d ranks exceed platform %d nodes", total, cfg.Platform.Nodes)
	}

	r := &runner{cfg: cfg, p: cfg.Platform, eng: &des.Engine{}}
	r.pfs = newPFS(r)
	if cfg.Mode != OriginalIOR {
		r.sched = &schedServer{r: r}
	}
	for _, ac := range cfg.Apps {
		r.apps = append(r.apps, newAppRun(r, ac))
	}
	for _, a := range r.apps {
		a.startIteration()
	}
	r.eng.Run()

	return r.collect()
}

type runner struct {
	cfg   Config
	p     *platform.Platform
	eng   *des.Engine
	pfs   *pfs
	sched *schedServer
	apps  []*appRun

	messages int
}

// msgDelay returns the effective latency for a message of the given base
// latency. On dedicated-network machines it is the base; on shared
// networks it inflates with the file system's instantaneous utilization.
func (r *runner) msgDelay(base float64) float64 {
	if !r.cfg.SharedNetwork {
		return base
	}
	return base * (1 + r.cfg.NetContention*r.pfs.utilization())
}

func (r *runner) collect() (*Result, error) {
	res := &Result{
		Messages: r.messages,
		Events:   r.eng.Steps(),
	}
	engaged := 0
	for _, a := range r.apps {
		if !a.finished() {
			return nil, fmt.Errorf("cluster: app %d stalled at iteration %d/%d (t=%g)",
				a.cfg.ID, a.iter, a.cfg.Iterations, r.eng.Now())
		}
		perf := metrics.AppPerf{
			ID:        a.cfg.ID,
			Name:      a.cfg.Name,
			Nodes:     a.cfg.Ranks,
			Release:   0,
			Finish:    a.finishTime,
			Work:      float64(a.cfg.Iterations) * a.cfg.Work,
			IdealTime: a.idealTime(),
			IOTime:    a.ioTime,
			Volume:    float64(a.cfg.Iterations) * a.cfg.Volume(),
		}
		res.Apps = append(res.Apps, perf)
		engaged += a.cfg.Ranks
		if a.finishTime > res.Makespan {
			res.Makespan = a.finishTime
		}
	}
	res.Summary = metrics.Summarize(res.Apps, engaged)
	if r.sched != nil {
		res.SchedRequests = r.sched.requests
		res.SchedDecisions = r.sched.decisions
	}
	if r.pfs.buffer != nil {
		res.BBPeakLevel = r.pfs.buffer.Peak()
		res.BBFullTime = r.pfs.buffer.FullTime()
	}
	return res, nil
}

// idealTime is the congestion-free execution time of the application:
// iterations × (work + aggregate volume at the dedicated-mode bandwidth).
func (a *appRun) idealTime() float64 {
	tio := 0.0
	if v := a.cfg.Volume(); v > 0 {
		tio = v / a.r.p.PeakAppBW(a.cfg.Ranks)
	}
	return float64(a.cfg.Iterations) * (a.cfg.Work + tio)
}

// jitterU returns a deterministic uniform [0,1) draw keyed by (seed, app,
// rank, iteration), so that the original and modified benchmark variants
// see the identical compute-time jitter and their runtimes are directly
// comparable (Figure 14 computes a ratio of the two).
func jitterU(seed int64, app, rank, iter int) float64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(app) + 1, uint64(rank) + 1, uint64(iter) + 1} {
		x ^= v * 0xbf58476d1ce4e5b9
		x ^= x >> 30
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / float64(1<<53)
}

// treeDepth returns the depth of the binary reduce tree over n ranks.
func treeDepth(n int) int {
	d := 0
	for span := 1; span < n; span *= 2 {
		d++
	}
	return d
}
