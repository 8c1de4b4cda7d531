// Package core implements the paper's contribution: approximate
// partitioned feasibility tests for implicit-deadline sporadic tasks on
// uniform (related) machines, with the approximation guarantees of
// Theorems I.1–I.4.
//
// The test is the §III algorithm — first-fit over utilization-descending
// tasks and speed-ascending machines with a per-machine admission test —
// run at a speed augmentation α chosen per theorem:
//
//	I.1  EDF vs partitioned adversary   α = 2
//	I.2  RMS vs partitioned adversary   α = 1/(√2−1) ≈ 2.414
//	I.3  EDF vs migratory/LP adversary  α = 2.98
//	I.4  RMS vs migratory/LP adversary  α = 3.34
//
// Accept means: the set is schedulable by the stated per-machine policy on
// the α-augmented platform, witnessed by the returned partition. Reject at
// the theorem's α means: the corresponding adversary cannot schedule the
// set at the original speeds.
package core

import (
	"context"
	"fmt"
	"math"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/pipeline"
	"partfeas/internal/task"
)

// Scheduler is the per-machine scheduling policy.
type Scheduler int

const (
	// EDF uses the exact utilization admission (Theorem II.2).
	EDF Scheduler = iota
	// RMS uses the Liu–Layland admission (Theorem II.3).
	RMS
)

func (s Scheduler) String() string {
	switch s {
	case EDF:
		return "EDF"
	case RMS:
		return "RMS"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Admission returns the partition.AdmissionTest the paper pairs with the
// scheduler.
func (s Scheduler) Admission() (partition.AdmissionTest, error) {
	switch s {
	case EDF:
		return partition.EDFAdmission{}, nil
	case RMS:
		return partition.RMSLLAdmission{}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %d", int(s))
	}
}

// Adversary is the optimal scheduler the approximation factor is measured
// against.
type Adversary int

const (
	// PartitionedAdversary must assign each task to one machine
	// (Theorems I.1, I.2).
	PartitionedAdversary Adversary = iota
	// MigratoryAdversary may split tasks across machines as the §II LP
	// allows (Theorems I.3, I.4).
	MigratoryAdversary
)

func (a Adversary) String() string {
	switch a {
	case PartitionedAdversary:
		return "partitioned"
	case MigratoryAdversary:
		return "migratory-LP"
	default:
		return fmt.Sprintf("Adversary(%d)", int(a))
	}
}

// The paper's proved approximation factors.
const (
	// AlphaEDFPartitioned is Theorem I.1's factor.
	AlphaEDFPartitioned = 2.0
	// AlphaRMSPartitioned is Theorem I.2's factor, 1/(√2−1) = √2+1.
	AlphaRMSPartitioned = math.Sqrt2 + 1
	// AlphaEDFMigratory is Theorem I.3's factor.
	AlphaEDFMigratory = 2.98
	// AlphaRMSMigratory is Theorem I.4's factor.
	AlphaRMSMigratory = 3.34
)

// Theorem identifies one of the paper's four results.
type Theorem int

const (
	// TheoremI1: EDF vs partitioned, α = 2.
	TheoremI1 Theorem = iota
	// TheoremI2: RMS vs partitioned, α ≈ 2.414.
	TheoremI2
	// TheoremI3: EDF vs migratory LP, α = 2.98.
	TheoremI3
	// TheoremI4: RMS vs migratory LP, α = 3.34.
	TheoremI4
)

// Theorems lists all four results in paper order.
var Theorems = []Theorem{TheoremI1, TheoremI2, TheoremI3, TheoremI4}

func (t Theorem) String() string {
	switch t {
	case TheoremI1:
		return "I.1"
	case TheoremI2:
		return "I.2"
	case TheoremI3:
		return "I.3"
	case TheoremI4:
		return "I.4"
	default:
		return fmt.Sprintf("Theorem(%d)", int(t))
	}
}

// Scheduler returns the per-machine policy the theorem is about.
func (t Theorem) Scheduler() Scheduler {
	switch t {
	case TheoremI1, TheoremI3:
		return EDF
	default:
		return RMS
	}
}

// Adversary returns the optimal scheduler the theorem compares against.
func (t Theorem) Adversary() Adversary {
	switch t {
	case TheoremI1, TheoremI2:
		return PartitionedAdversary
	default:
		return MigratoryAdversary
	}
}

// Alpha returns the theorem's proved approximation factor.
func (t Theorem) Alpha() float64 {
	switch t {
	case TheoremI1:
		return AlphaEDFPartitioned
	case TheoremI2:
		return AlphaRMSPartitioned
	case TheoremI3:
		return AlphaEDFMigratory
	case TheoremI4:
		return AlphaRMSMigratory
	default:
		return math.NaN()
	}
}

// Report is the outcome of one feasibility test run.
type Report struct {
	// Accepted is true when every task was placed: the set is schedulable
	// by Scheduler on the Alpha-augmented platform.
	Accepted bool
	// Scheduler is the per-machine policy used.
	Scheduler Scheduler
	// Alpha is the speed augmentation the test ran at.
	Alpha float64
	// Partition is the witness (or the failed attempt, with FailedTask
	// the paper's τ_n).
	Partition partition.Result
}

// Tester answers the paper's feasibility test for one (task set,
// platform, scheduler) triple at many augmentations. Construction builds
// a partition.Solver once — sort orders, per-task utilizations and
// scratch buffers are then shared by every query, so a repeat Test call
// allocates nothing. This is the engine behind MinAlpha bisections,
// MaxWCET sweeps and the Monte-Carlo experiment loops.
//
// A Tester is not safe for concurrent use; construct one per goroutine.
type Tester struct {
	sch    Scheduler
	solver *partition.Solver
}

// NewTester validates the instance and precomputes the α-independent
// state for the scheduler's admission test.
func NewTester(ts task.Set, p machine.Platform, sch Scheduler) (*Tester, error) {
	adm, err := sch.Admission()
	if err != nil {
		return nil, err
	}
	s, err := partition.NewSolver(ts, p, partition.Paper(adm, 1))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Tester{sch: sch, solver: s}, nil
}

// Test runs the paper's algorithm at augmentation alpha. The decisions
// are identical to the package-level Test. The Report's Partition field
// aliases the Tester's scratch buffers and is only valid until the next
// query; use Partition.Clone to retain it.
func (t *Tester) Test(alpha float64) (Report, error) {
	res, err := t.solver.Solve(alpha)
	if err != nil {
		return Report{}, fmt.Errorf("core: %w", err)
	}
	return Report{
		Accepted:  res.Feasible,
		Scheduler: t.sch,
		Alpha:     res.Alpha,
		Partition: res,
	}, nil
}

// TestCtx is Test observing ctx: a query against an expired or cancelled
// context returns a *pipeline.Error wrapping the ctx cause instead of
// running. One query is a single polynomial first-fit pass, so this is
// the whole cancellation story for Test — there is no mid-pass
// checkpoint to interrupt.
func (t *Tester) TestCtx(ctx context.Context, alpha float64) (Report, error) {
	if cerr := ctx.Err(); cerr != nil {
		return Report{}, pipeline.New(pipeline.StageAnalyze, "Test", cerr)
	}
	return t.Test(alpha)
}

// UpdateWCET changes task i's WCET for subsequent queries (invalidating
// previously returned Reports' Partition fields).
func (t *Tester) UpdateWCET(i int, wcet int64) error {
	if err := t.solver.UpdateWCET(i, wcet); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// MinAlpha bisects for the smallest accepted augmentation in [lo, hi],
// reusing the Tester's solver for every probe. See the package-level
// MinAlpha for the contract.
func (t *Tester) MinAlpha(lo, hi, tol float64) (alpha float64, ok bool, err error) {
	return t.MinAlphaCtx(context.Background(), lo, hi, tol)
}

// MinAlphaCtx is MinAlpha observing ctx between bisection probes (each
// probe is one polynomial first-fit pass, so cancellation latency is one
// probe). An interrupted bisection returns a *pipeline.Error wrapping
// the ctx cause.
func (t *Tester) MinAlphaCtx(ctx context.Context, lo, hi, tol float64) (alpha float64, ok bool, err error) {
	if !(lo > 0) || hi < lo {
		return 0, false, fmt.Errorf("core: MinAlpha bracket [%v, %v] invalid", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	rep, err := t.Test(hi)
	if err != nil {
		return 0, false, err
	}
	if !rep.Accepted {
		return 0, false, nil
	}
	rep, err = t.Test(lo)
	if err != nil {
		return 0, false, err
	}
	if rep.Accepted {
		return lo, true, nil
	}
	// Invariant: test rejects at lo, accepts at hi.
	for hi-lo > tol {
		if cerr := ctx.Err(); cerr != nil {
			return 0, false, pipeline.New(pipeline.StageAnalyze, "MinAlpha", cerr)
		}
		mid := (lo + hi) / 2
		if !(lo < mid && mid < hi) {
			break // tol is below the float spacing of [lo, hi]
		}
		rep, err = t.Test(mid)
		if err != nil {
			return 0, false, err
		}
		if rep.Accepted {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// Test runs the paper's algorithm for the given scheduler at augmentation
// alpha (≥ 1). One-shot: repeated queries on the same instance should use
// a Tester.
func Test(ts task.Set, p machine.Platform, sch Scheduler, alpha float64) (Report, error) {
	t, err := NewTester(ts, p, sch)
	if err != nil {
		return Report{}, err
	}
	// The Tester is discarded, so the Report's aliasing of its scratch is
	// harmless: the caller becomes the sole owner.
	return t.Test(alpha)
}

// TestTheorem runs the test at the theorem's proved α. A false Accepted
// certifies that the theorem's adversary cannot schedule the set at the
// original speeds.
func TestTheorem(ts task.Set, p machine.Platform, thm Theorem) (Report, error) {
	alpha := thm.Alpha()
	if math.IsNaN(alpha) {
		return Report{}, fmt.Errorf("core: unknown theorem %d", int(thm))
	}
	return Test(ts, p, thm.Scheduler(), alpha)
}

// MinAlpha returns the smallest augmentation (within tol) at which the
// test accepts the set, searched over [lo, hi] by bisection; ok is false
// when even hi does not suffice. Augmentations below 1 are legal and
// model a uniformly slower platform (Test(p, α) decides identically to
// Test(p.Scaled(α), 1)), which is what the approximation-ratio
// measurements need.
//
// The returned value is always one at which the test actually accepted
// (the final bisection verifies it); if the test already accepts at lo,
// lo itself is returned. Acceptance of the paper's first-fit tests is
// monotone in α in practice, but callers needing a proof-grade bracket
// should pick lo below the adversary scaling — any accepting α implies a
// feasible partition at scaling α, so the test provably rejects below
// σ_part.
func MinAlpha(ts task.Set, p machine.Platform, sch Scheduler, lo, hi, tol float64) (alpha float64, ok bool, err error) {
	t, err := NewTester(ts, p, sch)
	if err != nil {
		// Preserve the bracket check's precedence over instance errors for
		// callers that probe with invalid brackets on invalid instances.
		if !(lo > 0) || hi < lo {
			return 0, false, fmt.Errorf("core: MinAlpha bracket [%v, %v] invalid", lo, hi)
		}
		return 0, false, err
	}
	return t.MinAlpha(lo, hi, tol)
}
