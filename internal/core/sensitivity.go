package core

import (
	"fmt"
	"math"

	"partfeas/internal/machine"
	"partfeas/internal/task"
)

// MaxWCET returns the largest integer WCET for task i at which the
// feasibility test still accepts the set (all other tasks unchanged), at
// the given scheduler and augmentation — the task's execution-time
// headroom, a standard sensitivity-analysis question when budgeting
// worst-case execution times. ok is false when the test rejects even the
// current WCET.
//
// Acceptance is monotone in a single task's WCET for both admissions
// (growing C_i only raises utilization terms), so binary search over the
// integer range is exact.
func MaxWCET(ts task.Set, p machine.Platform, sch Scheduler, alpha float64, i int) (wcet int64, ok bool, err error) {
	if i < 0 || i >= len(ts) {
		return 0, false, fmt.Errorf("core: MaxWCET task index %d out of range [0, %d)", i, len(ts))
	}
	if err := ts.Validate(); err != nil {
		return 0, false, err
	}
	if err := p.Validate(); err != nil {
		return 0, false, err
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return 0, false, fmt.Errorf("core: MaxWCET alpha %v must be positive", alpha)
	}

	// One Tester serves every probe: the solver clones the task set, and
	// UpdateWCET re-establishes the task order in place, so each probe is
	// an allocation-free re-solve instead of a clone + full re-sort.
	tester, err := NewTester(ts, p, sch)
	if err != nil {
		return 0, false, err
	}
	probe := func(c int64) (bool, error) {
		if err := tester.UpdateWCET(i, c); err != nil {
			return false, err
		}
		rep, err := tester.Test(alpha)
		if err != nil {
			return false, err
		}
		return rep.Accepted, nil
	}

	accepted, err := probe(ts[i].WCET)
	if err != nil {
		return 0, false, err
	}
	if !accepted {
		return 0, false, nil
	}
	// Upper bracket: the task must at least fit alone on the fastest
	// machine, so C ≤ α·s_max·P (+1 to make the bracket exclusive),
	// clamped to MaxInt64 where the product leaves the int64 range.
	hi := int64(math.MaxInt64)
	if b := math.Ceil(alpha * p.MaxSpeed() * float64(ts[i].Period)); b < math.MaxInt64 {
		hi = int64(b) + 1
	}
	lo := ts[i].WCET // known accepted
	if hi <= lo {
		return lo, true, nil
	}
	// Invariant: lo accepted, hi rejected (or the true bound).
	if okHi, err := probe(hi); err != nil {
		return 0, false, err
	} else if okHi {
		return hi, true, nil
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		accepted, err := probe(mid)
		if err != nil {
			return 0, false, err
		}
		if accepted {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true, nil
}

// WCETHeadroom runs MaxWCET for every task, returning the per-task ratio
// MaxWCET_i / C_i (1.0 = no slack). Entries are NaN for tasks whose
// current WCET is already rejected (only possible when the whole set is
// rejected).
func WCETHeadroom(ts task.Set, p machine.Platform, sch Scheduler, alpha float64) ([]float64, error) {
	out := make([]float64, len(ts))
	for i := range ts {
		c, ok, err := MaxWCET(ts, p, sch, alpha, i)
		if err != nil {
			return nil, err
		}
		if !ok {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(c) / float64(ts[i].WCET)
	}
	return out, nil
}
