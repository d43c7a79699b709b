package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dectrace"
)

// fakeSet is the smallest engine: its views by slot (add order) and the
// bandwidth each one last received, with the kernel's transition applied
// on every grant.
type fakeSet struct {
	k     *Kernel
	views []*core.AppView
	bw    map[int]float64
}

func (f *fakeSet) Apply(slot int32, bw, now float64) {
	v := f.views[slot]
	f.bw[v.ID] = bw
	f.k.Transition(v, bw, now)
}

// add registers a pending request, the way an engine does: a membership
// change bumps the version. lastIO orders RoundRobin (oldest first).
func (f *fakeSet) add(id, nodes int, lastIO float64) *core.AppView {
	v := &core.AppView{ID: id, Nodes: nodes, Phase: core.Pending, RemVolume: 100, LastIOEnd: lastIO}
	f.k.Add(int32(len(f.views)), v)
	f.views = append(f.views, v)
	return v
}

// capB10 is B = 10, b = 1: an 8-node application alone fits, two do not.
var capB10 = core.Capacity{TotalBW: 10, NodeBW: 1}

func newFake(p core.Scheduler, trace dectrace.Sink) (*Kernel, *fakeSet) {
	k := New(p, trace, true)
	return &k, &fakeSet{k: &k, bw: map[int]float64{}}
}

func checkIdentities(t *testing.T, k *Kernel) {
	t.Helper()
	if k.Skipped != k.SkippedMemo+k.SkippedSaturating+k.SkippedSingleFullGrant {
		t.Errorf("Skipped %d != memo %d + saturating %d + single %d",
			k.Skipped, k.SkippedMemo, k.SkippedSaturating, k.SkippedSingleFullGrant)
	}
}

// TestMemoRule pins when the memo hits: a Memoizable policy, an unchanged
// version and an unchanged capacity — all three.
func TestMemoRule(t *testing.T) {
	k, set := newFake(core.RoundRobin(), nil)
	set.add(1, 8, 0)
	set.add(2, 8, 1)

	// Congested: the policy runs, and its grants flip Started on both
	// applications, so the verdict is memoized under the version it was
	// computed from — not the one its application produced.
	k.Decide(set, 0, capB10, "")
	if k.Decisions != 1 || set.bw[1] != 8 || set.bw[2] != 2 {
		t.Fatalf("first point: %d decisions, grants %v; want one decision granting 8 and 2", k.Decisions, set.bw)
	}
	if _, live := k.Memo(); live {
		t.Error("a decision that flipped Started left its own memo live")
	}
	k.Decide(set, 1, capB10, "")
	if k.Decisions != 2 {
		t.Fatalf("second point: %d decisions, want 2 (the memo died with the flip)", k.Decisions)
	}
	// The second application changed nothing: now the memo stands.
	k.Decide(set, 2, capB10, "")
	if k.Decisions != 2 || k.SkippedMemo != 1 {
		t.Fatalf("third point: %d decisions, %d memo skips; want 2 and 1", k.Decisions, k.SkippedMemo)
	}

	// A capacity change alone (the burst-buffer case) forces a decision.
	k.Decide(set, 3, core.Capacity{TotalBW: 9, NodeBW: 1}, "")
	if k.Decisions != 3 || set.bw[2] != 1 {
		t.Errorf("capacity change: %d decisions, app 2 at %g; want 3 and 1", k.Decisions, set.bw[2])
	}
	// So does a version change alone.
	k.Decide(set, 4, core.Capacity{TotalBW: 9, NodeBW: 1}, "")
	k.Version++
	k.Decide(set, 5, core.Capacity{TotalBW: 9, NodeBW: 1}, "")
	if k.Decisions != 4 || k.SkippedMemo != 2 {
		t.Errorf("version change: %d decisions, %d memo skips; want 4 and 2", k.Decisions, k.SkippedMemo)
	}

	// A preemption restarts PendingSince: that verdict, too, must not
	// outlive its application. App 3 is the oldest, so RoundRobin serves
	// it first and app 2 loses its bandwidth.
	set.add(3, 8, -1)
	k.Decide(set, 6, capB10, "")
	if set.bw[3] != 8 || set.bw[2] != 0 || set.views[1].PendingSince != 6 {
		t.Fatalf("preemption: grants %v, app 2 pending since %g", set.bw, set.views[1].PendingSince)
	}
	if _, live := k.Memo(); live {
		t.Error("a decision that preempted a transfer left its own memo live")
	}
	checkIdentities(t, k)

	// A policy that is not Memoizable never hits, whatever stands still.
	k, set = newFake(core.MaxSysEff(), nil)
	set.add(1, 8, 0)
	set.add(2, 8, 1)
	for i := 0; i < 4; i++ {
		k.Decide(set, float64(i), capB10, "")
	}
	if k.Decisions != 4 || k.Skipped != 0 {
		t.Errorf("MaxSysEff: %d decisions, %d skipped; want 4 and 0", k.Decisions, k.Skipped)
	}
}

// TestSkipPathsMemoizePostApplication pins the other half of the
// iosched-sim/3 rule: the single and saturating outcomes do not depend on
// the fields their application flips, so the next point memo-skips. App 1
// comes back with a smaller request between the two: it leaves and
// re-joins, since a member's Nodes never changes in place, and the
// saturating full grant, at the b and cap of the single one, must answer
// it.
func TestSkipPathsMemoizePostApplication(t *testing.T) {
	var trace dectrace.Slice
	k, set := newFake(core.RoundRobin(), &trace)
	set.add(1, 12, 0)
	k.Decide(set, 0, capB10, "request") // single: min(12, 10)
	k.Decide(set, 1, capB10, "progress")
	k.Remove(0)
	set.views[0].Nodes = 4
	k.Add(0, set.views[0])
	set.add(2, 4, 0)
	k.Decide(set, 2, capB10, "request") // saturating: 4 + 4 fits
	k.Decide(set, 3, capB10, "progress")
	want := Counters{Skipped: 4, SkippedMemo: 2, SkippedSaturating: 1, SkippedSingleFullGrant: 1}
	if k.Counters != want {
		t.Fatalf("counters %+v, want %+v", k.Counters, want)
	}
	if set.bw[1] != 4 || set.bw[2] != 4 {
		t.Errorf("grants %v, want 4 and 4", set.bw)
	}

	// Trace records: apps captured before application, the version after.
	if len(trace.Records) != 4 {
		t.Fatalf("%d trace records, want 4", len(trace.Records))
	}
	single, memo, sat := trace.Records[0], trace.Records[1], trace.Records[2]
	if single.Verdict != "single-full-grant" || single.Grants[0] != (dectrace.GrantRecord{ID: 1, BW: 10}) {
		t.Errorf("single record: %+v", single)
	}
	if a := single.Apps[0]; a.Phase != "pending" || a.Started {
		t.Errorf("single record captured app after application: %+v", a)
	}
	if memo.Verdict != "memo" || memo.Apps != nil || memo.Grants != nil || memo.CandVersion != single.CandVersion {
		t.Errorf("memo record: %+v (single at version %d)", memo, single.CandVersion)
	}
	if sat.Verdict != "saturating" || len(sat.Apps) != 2 || sat.Apps[1].Started || sat.CandVersion != k.Version {
		t.Errorf("saturating record: %+v (kernel at version %d)", sat, k.Version)
	}
	if sat.Kind != "request" || sat.Policy != "RoundRobin" || sat.TotalBW != 10 || sat.NodeBW != 1 {
		t.Errorf("saturating record header: %+v", sat)
	}
	for i, r := range trace.Records {
		if r.Seq != uint64(i+1) || r.Seq != uint64(r.Decisions+r.Skipped) {
			t.Errorf("record %d: seq %d, decisions %d, skipped %d", i, r.Seq, r.Decisions, r.Skipped)
		}
	}
}

// TestDecisionTraceCarriesPreApplicationVersion: a full decision's record
// carries the version its inputs had, and the views as the policy saw them.
func TestDecisionTraceCarriesPreApplicationVersion(t *testing.T) {
	var trace dectrace.Slice
	k, set := newFake(core.RoundRobin(), &trace)
	set.add(1, 8, 0)
	set.add(2, 8, 1)
	before := k.Version
	k.Decide(set, 0, capB10, "request")
	r := trace.Records[0]
	if r.Verdict != "decide" || r.CandVersion != before || k.Version == before {
		t.Errorf("record at version %d, inputs at %d, kernel now at %d", r.CandVersion, before, k.Version)
	}
	if r.Apps[0].Started || r.Apps[0].Phase != "pending" || len(r.Grants) != 2 {
		t.Errorf("record captured after application: %+v", r)
	}
	checkIdentities(t, k)
}

// TestEmptySetIsNotADecisionPoint: no candidates, no counter, no record.
func TestEmptySetIsNotADecisionPoint(t *testing.T) {
	var trace dectrace.Slice
	k, set := newFake(core.RoundRobin(), &trace)
	k.Decide(set, 0, capB10, "leave")
	if k.Counters != (Counters{}) || len(trace.Records) != 0 {
		t.Errorf("empty set counted: %+v, %d records", k.Counters, len(trace.Records))
	}
}

// TestSetPolicyAndMemoRoundTrip: a policy switch drops the memo; a memo
// captured from one kernel and restored into another keeps skipping.
func TestSetPolicyAndMemoRoundTrip(t *testing.T) {
	k, set := newFake(core.RoundRobin(), nil)
	set.add(1, 4, 0)
	k.Decide(set, 0, capB10, "")
	cap, live := k.Memo()
	if !live || cap != capB10 {
		t.Fatalf("memo after a single-candidate skip: %+v, live %v", cap, live)
	}

	resumed := New(core.RoundRobin(), nil, true)
	resumed.Add(0, set.views[0])
	resumed.Version = k.Version
	if _, live := resumed.Memo(); live {
		t.Error("fresh kernel reports a live memo")
	}
	resumed.RestoreMemo(cap)
	if got, live := resumed.Memo(); !live || got != cap {
		t.Errorf("restored memo: %+v, live %v", got, live)
	}
	set.k = &resumed
	resumed.Decide(set, 1, capB10, "")
	if resumed.SkippedMemo != 1 {
		t.Errorf("resumed kernel did not memo-skip: %+v", resumed.Counters)
	}

	k.SetPolicy(core.FairShare{})
	if _, live := k.Memo(); live {
		t.Error("SetPolicy kept the previous policy's memo")
	}
	if k.Policy().Name() != "fair-share" {
		t.Errorf("policy %q after the switch", k.Policy().Name())
	}
}

// overGrant hands every candidate the whole file system.
type overGrant struct{}

func (overGrant) Name() string { return "over-grant" }
func (overGrant) Allocate(_ float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	var out []core.Grant
	for _, v := range apps {
		out = append(out, core.Grant{AppID: v.ID, BW: cap.TotalBW})
	}
	return out
}

func TestCheckPanicsOnInvalidVerdict(t *testing.T) {
	k, set := newFake(overGrant{}, nil)
	set.add(1, 8, 0)
	set.add(2, 8, 0)
	defer func() {
		if recover() == nil {
			t.Error("an over-capacity verdict passed validation")
		}
	}()
	k.Decide(set, 0, capB10, "")
}
