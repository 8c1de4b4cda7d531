package online

import (
	"errors"
	"fmt"
	"math"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// Options configures NewEngine, the engine's one constructor: fresh
// builds and snapshot restores, implicit and constrained deadlines. The
// zero value is the paper's engine: sorted first-fit, EDF-class
// admission supplied via Admission, alpha 1.
type Options struct {
	// Policy is the placement policy; nil means FirstFitSorted (the
	// paper's order, the only policy with the sorted-solve guarantee).
	Policy Policy

	// Alpha is the speed augmentation every decision is made at; 0
	// means 1.
	Alpha float64

	// Admission selects the implicit-deadline admission test (EDF, RMS
	// Liu–Layland or RMS hyperbolic — the tests with incremental
	// state). Required when Deadlines is nil; ignored otherwise.
	Admission partition.AdmissionTest

	// Deadlines switches the engine to constrained-deadline DBF
	// admission: Deadlines[i] is task i's relative deadline
	// (C ≤ D ≤ P enforced), len(Deadlines) must equal len(ts), and the
	// admission test is dbf.FeasibleEDF, answered by the density tier
	// where that is conclusive. nil builds an implicit-deadline engine.
	Deadlines []int64

	// ApproxK is accepted and ignored, so callers that still set it keep
	// building; constrained engines always run the density and exact
	// tiers.
	ApproxK int

	// Placed, when non-nil, restores a previously captured placement
	// (Tasks() + PlacedLists()) instead of running the initial
	// placement pass: each machine's recorded list is refolded verbatim
	// with every placement re-verified against the admission bound, so
	// corrupted snapshots are rejected. Only local (non-ordered)
	// policies consult it — an ordered engine's state is a pure
	// function of the multiset, so it is rebuilt fresh and Placed is
	// ignored.
	Placed [][]int32

	// RepartCnt restores the PeriodicRepartition cadence counter
	// (Engine.RepartCount): mutations committed since the hook's last
	// rebuild. A snapshot-restored engine must resume the window where
	// the snapshot left it, or replaying the same ops fires rebuilds at
	// different mutations and the restored state diverges from the
	// original. Ignored (and clamped into the window) unless the policy
	// repartitions.
	RepartCnt int
}

// NewEngine builds an engine for the task set and platform under opts.
// The inputs are copied. If the initial set does not place under the
// policy, NewEngine returns ErrInfeasible; a first_fit_sorted engine,
// implicit-deadline or constrained, is returned with it, holding the
// fresh solve's failure state, and a local-policy engine is nil.
func NewEngine(ts task.Set, p machine.Platform, opts Options) (*Engine, error) {
	pol := opts.Policy
	if pol == nil {
		pol = FirstFitSorted()
	}
	constrained := opts.Deadlines != nil

	if constrained {
		if len(ts) == 0 {
			return nil, fmt.Errorf("online: empty task set")
		}
		if len(opts.Deadlines) != len(ts) {
			return nil, fmt.Errorf("online: %d deadlines for %d tasks", len(opts.Deadlines), len(ts))
		}
		for i := range ts {
			dt := dbf.Task{Name: ts[i].Name, WCET: ts[i].WCET, Deadline: opts.Deadlines[i], Period: ts[i].Period}
			if err := validateConstrained(dt); err != nil {
				return nil, fmt.Errorf("online: task %d: %w", i, err)
			}
		}
	} else {
		if err := ts.Validate(); err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = 1
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("online: alpha %v must be positive", alpha)
	}

	e := &Engine{pol: pol, ordered: pol.Ordered(), alpha: alpha}
	if rp, ok := pol.(repartitioning); ok {
		if constrained {
			return nil, fmt.Errorf("online: policy %q: repartition is not supported for constrained-deadline engines", pol.Name())
		}
		e.repartEvery = rp.repartitionEvery()
		if opts.RepartCnt > 0 {
			e.repartCnt = opts.RepartCnt % e.repartEvery
		}
	}

	if constrained {
		e.kind = admDBF
		e.dl = append([]int64(nil), opts.Deadlines...)
		e.dens = make([]float64, len(ts))
		for i := range ts {
			e.dens[i] = float64(ts[i].WCET) / float64(e.dl[i])
		}
	} else {
		if opts.Admission == nil {
			return nil, fmt.Errorf("online: implicit-deadline engine needs an admission test (or set Deadlines for the constrained pipeline)")
		}
		switch opts.Admission.(type) {
		case partition.EDFAdmission:
			e.kind = admEDF
		case partition.RMSLLAdmission:
			e.kind = admLL
		case partition.RMSHyperbolicAdmission:
			e.kind = admHyperbolic
		default:
			return nil, fmt.Errorf("online: admission %q has no incremental state; use the batch solver", opts.Admission.Name())
		}
		e.adm = opts.Admission
	}

	e.tasks = ts.Clone()
	e.p = append(machine.Platform(nil), p...)
	e.utils = make([]float64, len(ts))
	for i := range e.tasks {
		e.utils[i] = e.tasks[i].Utilization()
	}

	e.initState()
	if opts.Placed != nil && !e.ordered {
		if err := e.restorePlacement(opts.Placed); err != nil {
			return nil, err
		}
		return e, nil
	}
	if err := e.initPlacement(); err != nil {
		if errors.Is(err, ErrInfeasible) && e.ordered {
			return e, err
		}
		// The constrained pipeline's exact-tier probes can error;
		// ErrInfeasible passes through bare, probe errors gain the
		// package prefix (the constrained constructor's historical
		// wrapping).
		if constrained && !errors.Is(err, ErrInfeasible) {
			return nil, fmt.Errorf("online: %w", err)
		}
		return nil, err
	}
	return e, nil
}
