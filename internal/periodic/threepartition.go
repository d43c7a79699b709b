package periodic

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// This file implements the constructive direction of the paper's Theorem 1
// (NP-completeness of Periodic by reduction from 3-Partition): given a
// 3-Partition instance and a solution, the induced periodic schedule of
// period n puts application k's unit-time transfer inside its triplet's
// interval [i, i+1) and its n−1 units of compute in the remaining (wrapped)
// part of the period, achieving dilation exactly 1 and system efficiency
// (n−1)/n.
//
// The wrapped compute interval cannot be represented by the non-wrapping
// Slot model used by the insertion heuristics (see Schedule), so the
// construction is verified at the bandwidth-profile level, which is where
// the proof's feasibility argument lives.

// ThreePartition is an instance of the 3-Partition problem: 3n integers
// a_1..a_3n and a bound B with Σ a_i = n·B; the question is whether the
// integers split into n triplets each summing to B.
type ThreePartition struct {
	B int
	A []int
}

// Validate checks the instance's arithmetic invariants.
func (tp ThreePartition) Validate() error {
	if len(tp.A)%3 != 0 || len(tp.A) == 0 {
		return fmt.Errorf("periodic: 3-partition needs 3n integers, got %d", len(tp.A))
	}
	n := len(tp.A) / 3
	sum := 0
	for _, a := range tp.A {
		if a <= 0 {
			return fmt.Errorf("periodic: 3-partition integer %d, want > 0", a)
		}
		if a > tp.B {
			return fmt.Errorf("periodic: integer %d exceeds bound %d", a, tp.B)
		}
		sum += a
	}
	if sum != n*tp.B {
		return fmt.Errorf("periodic: Σa = %d, want n·B = %d", sum, n*tp.B)
	}
	return nil
}

// Reduce builds the Periodic instance of the reduction: per-node bandwidth
// b, total bandwidth B·b, and for each integer a_k an application with
// β = a_k, w = n−1 and vol = a_k·b (so time_io = 1 whenever B ≥ max a_k).
func (tp ThreePartition) Reduce(b float64) (*platform.Platform, []*platform.App) {
	n := len(tp.A) / 3
	totalNodes := 0
	for _, a := range tp.A {
		totalNodes += a
	}
	p := &platform.Platform{
		Name:    "3partition",
		Nodes:   totalNodes,
		NodeBW:  b,
		TotalBW: float64(tp.B) * b,
	}
	apps := make([]*platform.App, len(tp.A))
	for k, a := range tp.A {
		apps[k] = platform.NewPeriodic(k, a, float64(n-1), float64(a)*b, 1)
	}
	return p, apps
}

// VerifyPartition checks that triplets is a valid 3-Partition solution and
// that the induced periodic schedule is feasible: every integer is used
// exactly once, every triplet sums to B, and during each unit interval the
// transferring applications use exactly the full bandwidth B·b.
func (tp ThreePartition) VerifyPartition(b float64, triplets [][]int) error {
	if err := tp.Validate(); err != nil {
		return err
	}
	n := len(tp.A) / 3
	if len(triplets) != n {
		return fmt.Errorf("periodic: %d triplets, want %d", len(triplets), n)
	}
	seen := make([]bool, len(tp.A))
	usage := make([]float64, n)
	for i, trip := range triplets {
		sum := 0
		for _, k := range trip {
			if k < 0 || k >= len(tp.A) {
				return fmt.Errorf("periodic: index %d out of range in triplet %d", k, i)
			}
			if seen[k] {
				return fmt.Errorf("periodic: integer %d used twice", k)
			}
			seen[k] = true
			sum += tp.A[k]
			usage[i] += float64(tp.A[k]) * b
		}
		if sum != tp.B {
			return fmt.Errorf("periodic: triplet %d sums to %d, want %d", i, sum, tp.B)
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("periodic: integer %d not in any triplet", k)
		}
	}
	limit := float64(tp.B) * b
	for i, u := range usage {
		if math.Abs(u-limit) > 1e-9 {
			return fmt.Errorf("periodic: unit %d uses %g, a solution uses exactly B·b = %g", i, u, limit)
		}
	}
	return nil
}

// PartitionEfficiency returns the SysEfficiency a valid 3-partition
// schedule reaches: 100·(n−1)/n (every application computes n−1 of every n
// time units), which is also the reduction's decision threshold.
func PartitionEfficiency(n int) float64 {
	return 100 * float64(n-1) / float64(n)
}

// PartitionObjectives returns the objectives of the schedule induced by a
// verified solution: every application completes one instance per period n
// with ρ̃ = (n−1)/n = ρ, so Dilation is 1 and SysEfficiency is
// PartitionEfficiency(n).
func (tp ThreePartition) PartitionObjectives() (sysEff, dilation float64) {
	n := len(tp.A) / 3
	return PartitionEfficiency(n), 1
}
