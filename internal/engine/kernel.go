// Package engine is the decision kernel shared by the simulator
// (internal/sim) and the scheduler daemon (internal/server): both resolve
// every decision point — "at each event, decide who gets bandwidth" —
// through one Kernel. The kernel owns what is policy soundness: the
// policy's capabilities, the candidate-set version, the decision memo, the
// three skip rules and their counters, grant validation, the
// scheduler-visible view transition, the decision-trace record and the
// capture of each point's congestion signals (Observe) — and the
// candidate set itself (Candidates): membership, the ordered view and
// grant matching. An engine keeps only the side effect of a verdict,
// behind Set, and the bandwidth each slot holds, behind Holdings.
// internal/cluster stays separate: see the verdict in
// docs/architecture.md.
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dectrace"
)

// Set is what differs between the engines: the side effect of one
// candidate's bandwidth verdict. Apply receives every bandwidth that
// changed, plus one for each slot owed an answer (Kernel.Add), slot by
// slot; an implementation passes it through Kernel.Transition. A full
// grant (the skip paths) answers every candidate unless the previous
// verdict was the same full grant — same b, same cap — and then answers
// the owed ones; the policy verdict after a full grant answers every
// candidate. A slot that receives nothing holds its previous bandwidth,
// and its side effects stand (Candidates.Grant and Candidates.GrantFull
// say why that is sound).
type Set interface {
	Apply(slot int32, bw, now float64)
}

// Counters account for every decision point with a non-empty candidate
// set: Decisions counts policy invocations, Skipped the sum of the three
// per-reason skips (core.SkipReason). Decisions + Skipped is the point's
// ordinal: its trace record's Seq, the daemon's round count.
type Counters struct {
	Decisions              int
	Skipped                int
	SkippedMemo            int
	SkippedSaturating      int
	SkippedSingleFullGrant int
}

// Kernel is one engine's decision state; embed the value New returns. Not
// safe for concurrent use: the daemon calls it under its round lock.
type Kernel struct {
	Counters

	// Version is the candidate-set version. Add and Remove bump it on
	// every membership change, the engine on every discrete view change of
	// its own (a new request), Transition for the changes a verdict makes.
	// Only equality between versions ever matters.
	Version uint64

	// Cands is the candidate set; change its membership through Add and
	// Remove.
	Cands Candidates

	policy core.Scheduler
	caps   core.EngineCaps // resolved once per policy
	obs    Observers
	check  bool // validate every policy verdict

	// The memo: version and capacity of the last applied verdict.
	decided        bool
	decidedVersion uint64
	decidedCap     core.Capacity

	scr core.Scratch
}

// New returns a kernel deciding under p and watched by obs; check panics
// on a policy verdict that violates the capacity constraints.
func New(p core.Scheduler, obs Observers, check bool) Kernel {
	return Kernel{policy: p, caps: core.CapsOf(p), obs: obs, check: check}
}

// Policy returns the deciding policy.
func (k *Kernel) Policy() core.Scheduler { return k.policy }

// Add makes slot, with its view v, a candidate, and Remove withdraws it.
// A membership change bumps Version; removing a non-member changes
// nothing. Adding a member changes no membership but owes it an answer:
// the next verdict applies its bandwidth even when unchanged (the daemon's
// re-request, whose view went back to Pending and not Started). v.Nodes
// must not change while slot is a member — the simulator takes it from
// the application, the daemon from the hello — since the candidate set
// keeps Σ Nodes as members join and leave (Candidates.Demand).
//
//iosched:allocfree
func (k *Kernel) Add(slot int32, v *core.AppView) {
	if k.Cands.add(slot, v) {
		k.Version++
	}
}

//iosched:allocfree
func (k *Kernel) Remove(slot int32) {
	if k.Cands.remove(slot) {
		k.Version++
	}
}

// NextWake asks a Waker policy (core.Timeout promoting expired stalls) for
// its next self-chosen decision point over the current candidates.
func (k *Kernel) NextWake(now float64) (float64, bool) {
	if k.caps.Waker == nil || k.Cands.Len() == 0 {
		return 0, false
	}
	return k.caps.Waker.NextWake(now, k.Cands.Views())
}

// SetPolicy switches the deciding policy and drops the memo: the previous
// policy's verdict proves nothing about the next one's.
func (k *Kernel) SetPolicy(p core.Scheduler) {
	k.policy, k.caps, k.decided = p, core.CapsOf(p), false
}

// Memo reports whether the memo is live — no discrete scheduler-visible
// state changed since the applied verdict — and the capacity it saw.
func (k *Kernel) Memo() (cap core.Capacity, live bool) {
	return k.decidedCap, k.decided && k.Version == k.decidedVersion
}

// RestoreMemo marks the memo live at the current Version (snapshot resume).
func (k *Kernel) RestoreMemo(cap core.Capacity) {
	k.decided, k.decidedVersion, k.decidedCap = true, k.Version, cap
}

// Decide resolves the decision point at now: skip when the outcome is
// provably the previous one, apply the known outcome where the policy's
// capabilities fix it, or invoke the policy; set applies the outcome.
// kind names the trigger for the trace record.
//
//iosched:allocfree
func (k *Kernel) Decide(set Set, now float64, cap core.Capacity, kind string) {
	n := k.Cands.Len()
	if n == 0 {
		return
	}
	// What the trace record carries: the candidates as they were before the
	// verdict was applied, and the version the verdict is memoized under.
	var apps []dectrace.AppRecord
	var grants []dectrace.GrantRecord
	verdict, ver := core.SkipMemo, k.Version
	single := k.caps.SingleFullGrant && n == 1
	switch {
	// Memoizable skip: the policy's output is a pure function of the
	// candidate set, its discrete state and the capacity; none of them
	// changed since the applied verdict, so re-deciding would re-apply
	// identical grants. Discrete view fields change at events that bump
	// Version — and at verdict application itself, where Transition bumps
	// it too. The capacity is part of the memo because it moves on its own
	// (a burst buffer filling up) while the set stands still. The record
	// omits apps and grants: both are the previous record's.
	case k.caps.Memoizable && k.decided && ver == k.decidedVersion && cap == k.decidedCap:
		k.Skipped++
		k.SkippedMemo++

	// The two capability fast paths apply the same outcome, β·b capped at B.
	//
	// Single candidate: a lone requester receives exactly min(β·b, B) under
	// every SingleFullGrant policy, whatever the decision time — the
	// expression GreedyAllocate evaluates, bit for bit.
	//
	// Saturating: when total demand fits the capacity with a relative
	// margin that dwarfs greedy summation rounding, a Saturating policy
	// grants every candidate exactly β·b whatever its internal order. The
	// margin makes the cap at B a no-op (each β·b is below the demand) and
	// lets Demand round its sum in any way: every order of summation, and
	// the exact sum rounded once, lands on the same side of the
	// threshold, so an engine never walks or sorts for a skip.
	case single || k.caps.Saturating && k.Cands.Demand(cap.NodeBW) <= cap.TotalBW*(1-1e-9):
		if k.obs.Trace != nil {
			views := k.Cands.Views()
			apps = dectrace.CaptureApps(nil, views)
			for _, v := range views {
				bw := float64(v.Nodes) * cap.NodeBW
				if bw > cap.TotalBW {
					bw = cap.TotalBW
				}
				grants = append(grants, dectrace.GrantRecord{ID: v.ID, BW: bw})
			}
		}
		k.Cands.GrantFull(set, cap.NodeBW, cap.TotalBW, now)
		k.Skipped++
		if single {
			verdict = core.SkipSingleFullGrant
			k.SkippedSingleFullGrant++
		} else {
			verdict = core.SkipSaturating
			k.SkippedSaturating++
		}
		// Memoizing under the post-application version is sound here: the
		// outcome depends only on the candidate set and the capacity, not
		// on the fields Transition may have just changed, so the next point
		// with the same set and capacity may memo-skip.
		ver = k.Version

	// The policy decides from the views as they are NOW, and the verdict is
	// memoized under the version they have now: applying the grants can
	// itself change discrete view state (bumping Version), and a memo over
	// the pre-application inputs must not survive that.
	default:
		verdict = core.SkipNone
		views := k.Cands.Views()
		g := core.AllocateWith(k.policy, &k.scr, now, views, cap)
		k.Decisions++
		if k.check {
			if err := core.ValidateGrants(g, views, cap); err != nil {
				//iosched:allocfree-allow panic path: the Sprintf only runs on a policy contract violation
				panic(fmt.Sprintf("engine: scheduler %s: %v", k.policy.Name(), err))
			}
		}
		if k.obs.Trace != nil {
			apps, grants = dectrace.CaptureApps(nil, views), dectrace.CaptureGrants(nil, g)
		}
		k.Cands.Grant(set, g, now)
	}
	k.decided, k.decidedVersion, k.decidedCap = true, ver, cap // a memo skip rewrites itself
	if k.obs.Trace != nil {
		// The one place a decision record is built; counters are post-verdict.
		//iosched:allocfree-allow trace-enabled branch only: the record is built under the Trace != nil gate
		k.obs.Trace.Observe(&dectrace.Record{
			Seq:         uint64(k.Decisions + k.Skipped),
			Time:        now,
			Kind:        kind,
			Policy:      k.policy.Name(),
			Verdict:     verdict.String(),
			CandVersion: ver,
			TotalBW:     cap.TotalBW,
			NodeBW:      cap.NodeBW,
			Decisions:   k.Decisions,
			Skipped:     k.Skipped,
			Apps:        apps,
			Grants:      grants,
		})
	}
}

// Transition keeps one candidate's scheduler-visible phase in step with
// the bandwidth a verdict just gave it.
//
// Applying a verdict can itself change discrete view state a Memoizable
// policy is allowed to read — Started flips true on a first grant (the
// Priority partition orders on it), Phase toggles, and a preemption
// restarts PendingSince. Each such change bumps Version so the memo over
// the pre-application inputs dies with it: the next decision point
// re-invokes the policy exactly where an every-event loop could have
// decided differently (e.g. a partially-granted application that just
// became Started overtaking the previously started one under
// Priority-RoundRobin). Re-applying an unchanged verdict bumps nothing,
// so steady congested states still converge to memo skips.
//
//iosched:allocfree
func (k *Kernel) Transition(v *core.AppView, bw, now float64) {
	if bw > 0 {
		if !v.Started || v.Phase != core.Transferring {
			k.Version++
		}
		v.Phase = core.Transferring
		v.Started = true
		return
	}
	if v.Phase == core.Transferring {
		// Preempted: the stall clock restarts now.
		v.PendingSince = now
		k.Version++
	}
	v.Phase = core.Pending
}
