package core

import (
	"fmt"
	"math"
)

// Constants holds the four analysis constants (§IV for EDF, §V for RMS)
// that the paper's migratory-adversary proofs tune: c_s separates medium
// from fast machines (fast speed ≥ c_s·w_n/α), c_f is the fast-vs-total
// speed split between the two proof cases, and f_w, f_f split tasks by how
// much of them the LP runs on fast machines.
type Constants struct {
	Cs float64 // c_s > 1
	Cf float64 // c_f > 1
	Fw float64 // f_w ∈ [0, 1]
	Ff float64 // f_f ∈ [0, 1]
}

// PaperConstantsEDF are the §IV values supporting α = 2.98.
var PaperConstantsEDF = Constants{Cs: 2.868, Cf: 28.412, Fw: 0.811, Ff: 0.125}

// PaperConstantsRMS are the §V values supporting α = 3.34.
var PaperConstantsRMS = Constants{Cs: 2.00, Cf: 13.25, Fw: 0.72, Ff: 0.1956}

// Validate checks the structural ranges the proofs require.
func (c Constants) Validate() error {
	if !(c.Cs > 1) {
		return fmt.Errorf("core: constants: c_s %v must be > 1", c.Cs)
	}
	if !(c.Cf > 1) {
		return fmt.Errorf("core: constants: c_f %v must be > 1", c.Cf)
	}
	if c.Fw < 0 || c.Fw > 1 || math.IsNaN(c.Fw) {
		return fmt.Errorf("core: constants: f_w %v must be in [0,1]", c.Fw)
	}
	if c.Ff < 0 || c.Ff > 1 || math.IsNaN(c.Ff) {
		return fmt.Errorf("core: constants: f_f %v must be in [0,1]", c.Ff)
	}
	return nil
}

// InequalityValues are the left-hand sides of the three > 1 inequalities
// the proof of each migratory-adversary theorem reduces to. The proof goes
// through iff all three exceed 1.
type InequalityValues struct {
	// FastCase is the "powerful fast machines" contradiction
	// (Lemma IV.1 / V.1): (α−1)·(load coefficient) > 1.
	FastCase float64
	// SlowCaseSplit is the task-split contradiction (Lemma IV.5 / V.5):
	// work forced onto fast machines exceeds their LP capacity.
	SlowCaseSplit float64
	// SlowCaseMedium is the medium-machine contradiction
	// (Lemma IV.4 / V.4): work forced onto medium machines exceeds their
	// LP capacity. Uses f_{i,m} ≥ (1 + α·f_f − α) / (α(1/c_s − 1))
	// (Lemma IV.7 / V.7).
	SlowCaseMedium float64
}

// AllHold reports whether every inequality strictly exceeds 1.
func (v InequalityValues) AllHold() bool {
	return v.FastCase > 1 && v.SlowCaseSplit > 1 && v.SlowCaseMedium > 1
}

// Min returns the smallest of the three values — the slack of the
// weakest link.
func (v InequalityValues) Min() float64 {
	return math.Min(v.FastCase, math.Min(v.SlowCaseSplit, v.SlowCaseMedium))
}

// fIM is the Lemma IV.7 / V.7 lower bound on the fraction of an S_s task
// the LP must process on medium machines.
func (c Constants) fIM(alpha float64) float64 {
	return (1 + alpha*c.Ff - alpha) / (alpha * (1/c.Cs - 1))
}

// EDFInequalities evaluates the §IV proof obligations at augmentation
// alpha. The per-machine load guarantees after the algorithm fails are
// 1/2 (medium machines, since tasks are utilization-sorted) and 1 − 1/c_s
// (fast machines).
func (c Constants) EDFInequalities(alpha float64) InequalityValues {
	return InequalityValues{
		FastCase:       (alpha - 1) * (0.5 + 1/(2*c.Cf) - 1/(c.Cs*c.Cf)),
		SlowCaseSplit:  alpha * c.Cf * c.Ff * (1 - c.Fw) / 2,
		SlowCaseMedium: alpha / 2 * c.fIM(alpha) * c.Fw,
	}
}

// RMSInequalities evaluates the §V proof obligations at augmentation
// alpha. The per-machine load guarantees are √2−1 (all machines fast
// enough for τ_n, Lemma V.3) and ln 2 − 1/c_s (fast machines, Lemma V.2).
func (c Constants) RMSInequalities(alpha float64) InequalityValues {
	sq := math.Sqrt2 - 1
	return InequalityValues{
		FastCase:       (alpha - 1) * (sq + (math.Ln2-1/c.Cs)/c.Cf),
		SlowCaseSplit:  sq * alpha * c.Cf * c.Ff * (1 - c.Fw),
		SlowCaseMedium: sq * alpha * c.fIM(alpha) * c.Fw,
	}
}

// Inequalities dispatches on scheduler.
func (c Constants) Inequalities(sch Scheduler, alpha float64) (InequalityValues, error) {
	switch sch {
	case EDF:
		return c.EDFInequalities(alpha), nil
	case RMS:
		return c.RMSInequalities(alpha), nil
	default:
		return InequalityValues{}, fmt.Errorf("core: unknown scheduler %d", int(sch))
	}
}

// MinAlphaForConstants returns the smallest α (within tol) at which all
// three proof inequalities hold for the given constants, or ok=false when
// even alphaMax does not suffice. Every inequality's LHS is strictly
// increasing in α (FastCase linearly; the slow cases because f_{i,m}
// increases in α), so bisection is exact.
func MinAlphaForConstants(c Constants, sch Scheduler, alphaMax, tol float64) (alpha float64, ok bool, err error) {
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if tol <= 0 {
		tol = 1e-9
	}
	vals, err := c.Inequalities(sch, alphaMax)
	if err != nil {
		return 0, false, err
	}
	if !vals.AllHold() {
		return 0, false, nil
	}
	lo, hi := 1.0, alphaMax
	valsLo, err := c.Inequalities(sch, lo)
	if err != nil {
		return 0, false, err
	}
	if valsLo.AllHold() {
		return lo, true, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if !(lo < mid && mid < hi) {
			break // tol is below the float spacing of [lo, hi]
		}
		vals, err = c.Inequalities(sch, mid)
		if err != nil {
			return 0, false, err
		}
		if vals.AllHold() {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
