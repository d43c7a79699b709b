package platform

import (
	"errors"
	"fmt"
)

// Instance is one compute-then-I/O phase of an application: w units of
// computation (seconds, at unit speed) followed by a transfer of Volume GiB.
type Instance struct {
	Work   float64 // w(k,i), seconds of computation
	Volume float64 // vol_io(k,i), GiB transferred after the computation
}

// App is one application in the model: β dedicated nodes, a release time,
// and a sequence of instances that execute back to back (computation starts
// immediately after the previous instance's I/O completes).
type App struct {
	// ID is a unique small integer used as an index by schedulers.
	ID int
	// Name is a human-readable label ("S3D-like", "app-17", ...).
	Name string
	// Nodes is β(k), the number of dedicated nodes.
	Nodes int
	// Release is r(k), the time the application enters the system.
	Release float64
	// Instances holds the n_tot(k) compute/I-O phases.
	Instances []Instance
}

// NewPeriodic builds a periodic application: n identical instances of w
// seconds of compute followed by vol GiB of I/O. Periodic applications
// (checkpointing codes, S3D, HOMME, GTC, Enzo, HACC, CM1 in the paper) are
// the common case on Intrepid.
func NewPeriodic(id, nodes int, w, vol float64, n int) *App {
	a := &App{
		ID:        id,
		Name:      fmt.Sprintf("app-%d", id),
		Nodes:     nodes,
		Instances: make([]Instance, n),
	}
	for i := range a.Instances {
		a.Instances[i] = Instance{Work: w, Volume: vol}
	}
	return a
}

// Validate reports a descriptive error if the application is malformed.
func (a *App) Validate() error {
	switch {
	case a == nil:
		return errors.New("platform: nil app")
	case a.Nodes <= 0:
		return fmt.Errorf("app %d: Nodes = %d, want > 0", a.ID, a.Nodes)
	case a.Release < 0:
		return fmt.Errorf("app %d: Release = %g, want >= 0", a.ID, a.Release)
	case len(a.Instances) == 0:
		return fmt.Errorf("app %d: no instances", a.ID)
	}
	for i, in := range a.Instances {
		if in.Work < 0 {
			return fmt.Errorf("app %d instance %d: Work = %g, want >= 0", a.ID, i, in.Work)
		}
		if in.Volume < 0 {
			return fmt.Errorf("app %d instance %d: Volume = %g, want >= 0", a.ID, i, in.Volume)
		}
		if in.Work == 0 && in.Volume == 0 {
			return fmt.Errorf("app %d instance %d: empty instance", a.ID, i)
		}
	}
	return nil
}

// IsPeriodic reports whether all instances have identical work and volume.
func (a *App) IsPeriodic() bool {
	if len(a.Instances) == 0 {
		return true
	}
	first := a.Instances[0]
	for _, in := range a.Instances[1:] {
		if in != first {
			return false
		}
	}
	return true
}

// TotalWork returns Σ_i w(k,i), the total computation of the application.
func (a *App) TotalWork() float64 {
	var s float64
	for _, in := range a.Instances {
		s += in.Work
	}
	return s
}

// TotalVolume returns Σ_i vol(k,i), the total I/O volume of the application.
func (a *App) TotalVolume() float64 {
	var s float64
	for _, in := range a.Instances {
		s += in.Volume
	}
	return s
}

// IOTime returns time_io(k,i) = vol(k,i) / min(β·b, B): the minimum time to
// transfer instance i's volume with the whole I/O system dedicated to the
// application.
func (a *App) IOTime(p *Platform, i int) float64 {
	vol := a.Instances[i].Volume
	if vol == 0 {
		return 0
	}
	return vol / p.PeakAppBW(a.Nodes)
}

// DedicatedTime returns Σ_i (w(k,i) + time_io(k,i)): the execution time of
// the application if it never suffered I/O contention.
func (a *App) DedicatedTime(p *Platform) float64 {
	var s float64
	for i, in := range a.Instances {
		s += in.Work + a.IOTime(p, i)
	}
	return s
}

// OptimalEfficiency returns ρ(k) evaluated over the whole application:
// TotalWork / DedicatedTime. It is the best achievable value of ρ̃(k)(d_k)
// and equals the application's compute fraction in dedicated mode.
func (a *App) OptimalEfficiency(p *Platform) float64 {
	dt := a.DedicatedTime(p)
	if dt == 0 {
		return 1
	}
	return a.TotalWork() / dt
}

// CloneWithID returns a deep copy of the application with a new ID and name
// suffix. Used when replicating known applications to fill in unobserved
// Darshan coverage (Section 4.4 of the paper).
func (a *App) CloneWithID(id int) *App {
	c := *a
	c.ID = id
	c.Name = fmt.Sprintf("%s-rep%d", a.Name, id)
	c.Instances = make([]Instance, len(a.Instances))
	copy(c.Instances, a.Instances)
	return &c
}

// ValidateApps checks every application, that IDs are unique, and that the
// total node demand fits on the platform (applications have dedicated
// nodes, so they must all fit simultaneously).
func ValidateApps(p *Platform, apps []*App) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(apps) == 0 {
		return errors.New("platform: no applications")
	}
	total := 0
	// Strictly ascending IDs — what every generator produces — are unique
	// by construction; the set is built only from the first app that
	// breaks the order.
	var seen map[int]bool
	for i, a := range apps {
		if err := a.Validate(); err != nil {
			return err
		}
		if seen == nil && i > 0 && a.ID <= apps[i-1].ID {
			seen = make(map[int]bool, len(apps))
			for _, prev := range apps[:i] {
				seen[prev.ID] = true
			}
		}
		if seen != nil {
			if seen[a.ID] {
				return fmt.Errorf("duplicate app ID %d", a.ID)
			}
			seen[a.ID] = true
		}
		total += a.Nodes
	}
	if total > p.Nodes {
		return fmt.Errorf("apps need %d nodes, platform %q has %d", total, p.Name, p.Nodes)
	}
	return nil
}
