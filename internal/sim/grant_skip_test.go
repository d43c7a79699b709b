package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dectrace"
)

// skipCheck is a Set wrapper and decision-trace sink over one simulation.
// It records which slots a decision point applied, and at the point's
// trace record — after the verdict — checks every candidate it did not
// apply: the slot already holds the verdict's bandwidth, and its view is
// already in the state Kernel.Transition leaves for that bandwidth, so the
// skipped apply could have changed nothing.
type skipCheck struct {
	t       *testing.T
	name    string
	s       *simulation
	applied map[int32]bool // slots applied at the current decision point
	// owed holds the candidates a resume restored: the first verdict that
	// applies anything must answer each one still a candidate.
	owed    map[int32]bool
	skipped int // candidates the verdicts left alone
}

func (c *skipCheck) Apply(slot int32, bw, now float64) {
	c.applied[slot] = true
	c.s.Apply(slot, bw, now)
}

func (c *skipCheck) Observe(r *dectrace.Record) {
	defer clear(c.applied)
	if r.Verdict == core.SkipMemo.String() {
		if len(c.applied) != 0 {
			c.t.Fatalf("%s: memo skip at t=%g applied %d slots", c.name, r.Time, len(c.applied))
		}
		return
	}
	want := make(map[int]float64, len(r.Grants))
	for _, g := range r.Grants {
		want[g.ID] = g.BW
	}
	slots, views := c.s.k.Cands.Ordered()
	for i, slot := range slots {
		if c.owed[slot] && !c.applied[slot] {
			c.t.Fatalf("%s: the first verdict after resume (t=%g) left restored candidate %d unanswered", c.name, r.Time, views[i].ID)
		}
		if c.applied[slot] {
			continue
		}
		c.skipped++
		st, v, bw := &c.s.apps[slot], views[i], want[views[i].ID]
		post := v.Phase == core.Pending
		if bw > 0 {
			post = v.Phase == core.Transferring && v.Started
		}
		if st.bw != bw || !post || (st.activePos >= 0) != (bw > 0) {
			c.t.Fatalf("%s: t=%g skipped app %d holds bw %g (transferring set %v), phase %v, started %v; the verdict gives %g",
				c.name, r.Time, v.ID, st.bw, st.activePos >= 0, v.Phase, v.Started, bw)
		}
	}
	clear(c.owed)
}

func newSkipCheck(t *testing.T, name string, cfg *Config) *skipCheck {
	c := &skipCheck{t: t, name: name, applied: map[int32]bool{}, owed: map[int32]bool{}}
	cfg.DecisionTrace = c
	return c
}

// TestSkippedAppliesChangeNothing runs the cross-engine battery with every
// verdict passing through skipCheck, from the start and resumed from a
// mid-run snapshot (where every restored candidate is owed an answer), and
// requires the results to equal the plain run's bit for bit.
func TestSkippedAppliesChangeNothing(t *testing.T) {
	skipped := 0
	for _, c := range equivCases(t) {
		full := runEquivCase(t, c)

		cfg := c.Cfg
		chk := newSkipCheck(t, c.Name, &cfg)
		s := newSimulation(cfg)
		chk.s, s.set = s, chk
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		compareResults(t, c.Name, res, full)
		skipped += chk.skipped

		snap, err := RunToSnapshot(c.Cfg, 0.5*full.Summary.Makespan)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		cfg = c.Cfg
		chk = newSkipCheck(t, c.Name+"/resumed", &cfg)
		if s, err = newSimulationFromSnapshot(cfg, snap); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		chk.s, s.set = s, chk
		slots, _ := s.k.Cands.Ordered()
		for _, slot := range slots {
			chk.owed[slot] = true
		}
		if _, err := s.loop(math.Inf(1)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		compareResults(t, c.Name+"/resumed", s.collect(), full)
	}
	if skipped == 0 {
		t.Fatal("no verdict skipped an unchanged candidate: the check checked nothing")
	}
	t.Logf("%d unchanged candidates skipped and checked", skipped)
}
