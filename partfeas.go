package partfeas

import (
	"context"
	"fmt"

	"partfeas/internal/core"
	"partfeas/internal/exact"
	"partfeas/internal/fractional"
	"partfeas/internal/machine"
	"partfeas/internal/openshop"
	"partfeas/internal/pipeline"
	"partfeas/internal/sim"
	"partfeas/internal/task"
)

// PipelineError is the structured error every cancellable entry point
// returns on interruption: it names the pipeline stage, the trial and
// machine indices where applicable, and wraps the cause (so errors.Is
// against context.Canceled / context.DeadlineExceeded works through it).
// Recovered worker panics surface as a PipelineError wrapping ErrPanic
// with the panicking goroutine's stack attached.
type PipelineError = pipeline.Error

// ErrPanic is the sentinel wrapped by PipelineErrors born from recovered
// worker panics.
var ErrPanic = pipeline.ErrPanic

// ErrBudgetExceeded is the sentinel the exact partitioned adversary
// wraps when its node budget runs out. PartitionedMinScaling surfaces
// it as an error; AnalyzeCtx instead degrades to the certified
// incumbent bound (Analysis.Degraded) and never returns it.
var ErrBudgetExceeded = exact.ErrBudgetExceeded

// IsCanceled reports whether err is due to context cancellation or
// deadline expiry, looking through any PipelineError wrapping.
func IsCanceled(err error) bool { return pipeline.Canceled(err) }

// Task is one implicit-deadline sporadic task (WCET C, period/deadline P).
type Task = task.Task

// TaskSet is an ordered collection of tasks.
type TaskSet = task.Set

// Machine is one processor of a uniform platform.
type Machine = machine.Machine

// Platform is a set of related machines with speeds.
type Platform = machine.Platform

// NewPlatform builds a platform from raw speeds, naming machines m0, m1, ….
func NewPlatform(speeds ...float64) Platform { return machine.New(speeds...) }

// Scheduler selects the per-machine policy of the feasibility test.
type Scheduler = core.Scheduler

// Per-machine scheduling policies.
const (
	// EDF pairs the test with the exact utilization admission.
	EDF = core.EDF
	// RMS pairs the test with the Liu–Layland admission.
	RMS = core.RMS
)

// Theorem identifies one of the paper's four approximation results.
type Theorem = core.Theorem

// The paper's four theorems.
const (
	// TheoremI1 is FF-EDF vs the partitioned optimum, α = 2.
	TheoremI1 = core.TheoremI1
	// TheoremI2 is FF-RMS vs the partitioned optimum, α ≈ 2.414.
	TheoremI2 = core.TheoremI2
	// TheoremI3 is FF-EDF vs the migratory LP bound, α = 2.98.
	TheoremI3 = core.TheoremI3
	// TheoremI4 is FF-RMS vs the migratory LP bound, α = 3.34.
	TheoremI4 = core.TheoremI4
)

// Theorems lists all four results in paper order.
var Theorems = core.Theorems

// Report is the outcome of one feasibility test run, including the
// witness partition (or the failing task on rejection).
type Report = core.Report

// Test runs the paper's first-fit feasibility test for the scheduler at
// speed augmentation alpha. It is TestCtx without a deadline; both
// validate the instance eagerly, so a platform built from bad speeds
// (NewPlatform accepts anything) fails here with the offending machine
// index named.
func Test(ts TaskSet, p Platform, sch Scheduler, alpha float64) (Report, error) {
	return TestCtx(context.Background(), Instance{Tasks: ts, Platform: p, Scheduler: sch}, alpha)
}

// TestTheorem runs the test at the theorem's proved augmentation factor.
// Rejection certifies the theorem's adversary cannot schedule the set at
// the original speeds.
func TestTheorem(ts TaskSet, p Platform, thm Theorem) (Report, error) {
	return core.TestTheorem(ts, p, thm)
}

// MinAlpha bisects for the smallest augmentation in [lo, hi] at which the
// test accepts; ok is false when even hi does not suffice.
func MinAlpha(ts TaskSet, p Platform, sch Scheduler, lo, hi, tol float64) (alpha float64, ok bool, err error) {
	return core.MinAlpha(ts, p, sch, lo, hi, tol)
}

// Tester answers the feasibility test for one (task set, platform,
// scheduler) triple at many augmentations, reusing precomputed sort
// orders and scratch buffers so a repeat query allocates nothing. Use it
// instead of Test when probing the same instance repeatedly (bisections,
// sensitivity sweeps, admission-control loops). Not safe for concurrent
// use; construct one per goroutine.
type Tester = core.Tester

// NewTester builds a reusable Tester for the instance, validating it
// eagerly (bad machine speeds are reported here, by index, rather than
// surfacing later).
func NewTester(ts TaskSet, p Platform, sch Scheduler) (*Tester, error) {
	if err := (Instance{Tasks: ts, Platform: p, Scheduler: sch}).Validate(); err != nil {
		return nil, err
	}
	return core.NewTester(ts, p, sch)
}

// PartitionedMinScaling returns σ_part: the minimal uniform platform
// scaling under which some partition fits (exact branch-and-bound,
// parallelized across GOMAXPROCS; exponential worst case — intended for
// n ≲ 20).
func PartitionedMinScaling(ts TaskSet, p Platform) (float64, error) {
	res, err := exact.MinScalingParallel(ts, p, exact.Options{})
	if err != nil {
		return 0, err
	}
	return res.Sigma, nil
}

// MigratoryMinScaling returns σ_LP: the minimal uniform platform scaling
// under which the paper's migratory LP is feasible (closed form,
// O(n log n + m log m)).
func MigratoryMinScaling(ts TaskSet, p Platform) (float64, error) {
	return fractional.MinScaling(ts, p)
}

// Policy selects the simulated per-machine discipline.
type Policy = sim.Policy

// Simulation policies.
const (
	// PolicyEDF simulates earliest-deadline-first.
	PolicyEDF = sim.PolicyEDF
	// PolicyRM simulates rate-monotonic fixed priorities.
	PolicyRM = sim.PolicyRM
)

// SimulationResult aggregates per-machine deadline-miss reports.
type SimulationResult = sim.PlatformResult

// ArrivalModel generates release times for simulated sporadic tasks; see
// sim.PeriodicArrivals and sim.JitteredArrivals.
type ArrivalModel = sim.ArrivalModel

// JitteredArrivals is a deterministic sparser-than-periodic sporadic
// arrival model for SimulateOptions.Arrivals.
type JitteredArrivals = sim.JitteredArrivals

// Trace records the execution segments of one simulated machine.
type Trace = sim.Trace

// Gantt renders per-machine traces as an ASCII chart over [0, horizon)
// using width character cells; labels[i] names task i.
func Gantt(traces []*Trace, labels []string, horizon int64, width int) string {
	return sim.Gantt(traces, labels, horizon, width)
}

// MaxWCET returns the largest integer WCET for task i at which the test
// still accepts (all other tasks unchanged) — per-task execution-time
// headroom for WCET budgeting. ok is false when the set is rejected as
// given.
func MaxWCET(ts TaskSet, p Platform, sch Scheduler, alpha float64, i int) (wcet int64, ok bool, err error) {
	return core.MaxWCET(ts, p, sch, alpha, i)
}

// WCETHeadroom returns MaxWCET_i / C_i for every task (NaN entries when
// the set is rejected as given).
func WCETHeadroom(ts TaskSet, p Platform, sch Scheduler, alpha float64) ([]float64, error) {
	return core.WCETHeadroom(ts, p, sch, alpha)
}

// CyclicSchedule is a migrating schedule template executed in every unit
// window: a sequence of matching slices produced by open-shop
// decomposition of an LP witness.
type CyclicSchedule = openshop.Schedule

// MigratorySchedule makes the migratory adversary constructive: it solves
// the paper's LP for the instance and decomposes the witness into an
// explicit cyclic migrating schedule that meets every deadline. ok is
// false when the LP is infeasible (no migrating scheduler can succeed at
// these speeds).
func MigratorySchedule(ts TaskSet, p Platform) (sched *CyclicSchedule, ok bool, err error) {
	feasible, u, err := fractional.SolveLP(ts, p)
	if err != nil || !feasible {
		return nil, false, err
	}
	s, err := openshop.FromLP(u, p, 1e-9)
	if err != nil {
		return nil, false, err
	}
	if err := openshop.VerifyDeadlines(s, ts, p, 1e-5); err != nil {
		return nil, false, fmt.Errorf("partfeas: constructed schedule failed verification: %w", err)
	}
	return s, true, nil
}

// Analysis bundles everything partfeas can say about one instance.
type Analysis struct {
	// SigmaPartitioned is σ_part. When SigmaPartitionedExact is false the
	// exact search was interrupted (node budget or ctx deadline) and
	// SigmaPartitioned is instead the certified upper bound the search
	// degraded to — at worst the polynomial LPT-greedy bound, never 0.
	SigmaPartitioned      float64
	SigmaPartitionedExact bool
	// Degraded is true when any component of the analysis fell back to a
	// polynomial bound instead of an exact answer (currently only the
	// partitioned adversary can degrade).
	Degraded bool
	// SigmaMigratory is σ_LP.
	SigmaMigratory float64
	// Reports holds the outcome of each theorem's test, indexed like
	// Theorems.
	Reports [4]Report
	// MinAlphaEDF and MinAlphaRMS are the smallest augmentations at which
	// each test accepts (0 when not found below the searched ceiling).
	MinAlphaEDF float64
	MinAlphaRMS float64
}

// AnalyzeOptions tunes AnalyzeCtx.
type AnalyzeOptions struct {
	// ExactBudget overrides the exact adversary's node budget when
	// positive (exhaustion degrades the analysis instead of failing it).
	ExactBudget int64
	// ExactWorkers bounds the exact adversary's worker goroutines; zero
	// means GOMAXPROCS.
	ExactWorkers int
}

// Analyze runs the four theorem tests, both adversary scalings and the
// minimal-α measurements for one instance.
func Analyze(ts TaskSet, p Platform) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), ts, p, AnalyzeOptions{})
}

// AnalyzeCtx is Analyze with cooperative cancellation and graceful
// degradation. A ctx deadline (or exact node-budget exhaustion) does not
// fail the analysis: the exact partitioned adversary degrades to its
// certified incumbent bound and the Analysis is marked Degraded.
// Explicit cancellation aborts the whole analysis with a PipelineError
// wrapping context.Canceled.
func AnalyzeCtx(ctx context.Context, ts TaskSet, p Platform, opts AnalyzeOptions) (*Analysis, error) {
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("partfeas: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("partfeas: %w", err)
	}
	a := &Analysis{}
	var err error
	a.SigmaMigratory, err = fractional.MinScaling(ts, p)
	if err != nil {
		return nil, err
	}
	// The exact adversary is the only exponential stage; run it bounded so
	// budget or deadline exhaustion degrades to the incumbent bound
	// (seeded by the polynomial LPT greedy) instead of failing.
	exres, err := exact.SearchParallelBounded(ctx, ts, p, exact.Options{
		NodeBudget: opts.ExactBudget,
		Workers:    opts.ExactWorkers,
	})
	if err != nil {
		return nil, err
	}
	a.SigmaPartitioned = exres.Sigma
	a.SigmaPartitionedExact = !exres.Degraded
	a.Degraded = exres.Degraded
	// A deadline is a budget for the exponential stage, not an abort: once
	// it has fired the remaining stages (all polynomial, microseconds) run
	// unconstrained so the caller still gets a complete, Degraded
	// analysis. Explicit cancellation still aborts below.
	if ctx.Err() == context.DeadlineExceeded {
		ctx = context.Background()
	}
	// One solver per scheduler serves the four theorem tests and both
	// bisections: the sort orders are computed twice instead of the ~60
	// times the naive per-query path pays.
	testerEDF, err := core.NewTester(ts, p, core.EDF)
	if err != nil {
		return nil, err
	}
	testerRMS, err := core.NewTester(ts, p, core.RMS)
	if err != nil {
		return nil, err
	}
	for i, thm := range Theorems {
		if cerr := ctx.Err(); cerr != nil {
			return nil, pipeline.New(pipeline.StageAnalyze, "theorem tests", cerr)
		}
		tester := testerEDF
		if thm.Scheduler() == core.RMS {
			tester = testerRMS
		}
		rep, err := tester.Test(thm.Alpha())
		if err != nil {
			return nil, err
		}
		// Reports outlive the next query, so detach the witness from the
		// tester's scratch.
		rep.Partition = rep.Partition.Clone()
		a.Reports[i] = rep
	}
	// Search ceilings follow from the theorems: the EDF test accepts by
	// α = 2.98·σ_LP, the RMS test by 3.34·σ_LP.
	lo := a.SigmaMigratory / 2
	a.MinAlphaEDF, _, err = testerEDF.MinAlphaCtx(ctx, lo, 2.98*a.SigmaMigratory*(1+1e-6), 1e-6)
	if err != nil {
		return nil, err
	}
	a.MinAlphaRMS, _, err = testerRMS.MinAlphaCtx(ctx, lo, 3.34*a.SigmaMigratory*(1+1e-6), 1e-6)
	if err != nil {
		return nil, err
	}
	return a, nil
}
