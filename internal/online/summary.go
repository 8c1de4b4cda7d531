package online

import (
	"partfeas/internal/dbf"
	"partfeas/internal/partition"
)

// Summary is a single-task mutation's answer without the n-entry
// assignment: what a served session reports. It describes the state
// the plain call's partition.Result describes — the committed state, or
// the refusal's fresh-solve witness — minus everything but the op task's
// own assignment entry.
type Summary struct {
	// Feasible is the call's verdict and the described state's: false
	// for a refusal and for a forced commit that holds a failure state.
	Feasible bool
	// FailedTask is the described state's failed task, -1 when Feasible.
	FailedTask int
	// Loads are the described state's per-machine loads, in input order.
	// They alias engine scratch, valid until the engine's next call.
	Loads []float64
	// Machine is the op task's entry in the described assignment: its
	// machine index, or -1 when unplaced. A removal reports -1.
	Machine int
}

// AdmitSummary is AdmitConstrained answered as a Summary. The refusal
// builds no witness assignment, so on a first_fit_sorted
// implicit-deadline engine a refused admission costs O(m log n) and
// allocates nothing (see refuseEarly); other engines still insert and
// roll back.
//
// With force set, AdmitSummary, RemoveSummary and UpdateWCETSummary
// commit the mutation even when the engine refuses it. A refused
// mutation leaves the engine in the fresh sorted solve's failure state
// over the new multiset (see the package doc), which the Summary and
// Result then report exactly as the fresh solve does (partition.Solver,
// or dbf.FirstFit for a constrained engine): Feasible false, FailedTask,
// -1 for every unplaced task, and the loads at the failure point. Only
// first_fit_sorted engines can hold that state; a local-policy engine
// answers force with an error and is unchanged.
func (e *Engine) AdmitSummary(t dbf.Task, force bool) (Summary, error) {
	if err := e.forcible(force); err != nil {
		return Summary{}, err
	}
	e.brief = true
	res, _, err := e.admitConstrained(t, force)
	e.brief = false
	return e.summary(res, err, len(e.tasks)-1)
}

// RemoveSummary is Remove answered as a Summary; force commits a
// refused removal (see AdmitSummary).
func (e *Engine) RemoveSummary(id int, force bool) (Summary, error) {
	if err := e.forcible(force); err != nil {
		return Summary{}, err
	}
	e.brief = true
	res, _, err := e.remove(id, force)
	e.brief = false
	return e.summary(res, err, -1)
}

// UpdateWCETSummary is UpdateWCET answered as a Summary; force commits a
// refused update (see AdmitSummary).
func (e *Engine) UpdateWCETSummary(id int, wcet int64, force bool) (Summary, error) {
	if err := e.forcible(force); err != nil {
		return Summary{}, err
	}
	e.brief = true
	res, _, err := e.updateWCET(id, wcet, force)
	e.brief = false
	return e.summary(res, err, id)
}

// summary converts a brief call's result. A refusal carries no
// assignment and its op task's entry is in briefMach; any other result
// is the engine's state, which holds the op task (when there is one) at
// index op.
func (e *Engine) summary(res partition.Result, err error, op int) (Summary, error) {
	if err != nil {
		return Summary{}, err
	}
	s := Summary{Feasible: res.Feasible, FailedTask: res.FailedTask, Loads: res.Loads, Machine: -1}
	switch {
	case res.Assignment == nil:
		s.Machine = e.briefMach
	case op >= 0 && op < len(res.Assignment):
		s.Machine = res.Assignment[op]
	}
	return s, nil
}
