package online

import (
	"partfeas/internal/dbf"
	"partfeas/internal/partition"
	"partfeas/internal/task"
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

// AdmitSummary is AdmitConstrained, or ForceAdmit when force is set,
// answered as a Summary. The refusal builds no witness assignment, so on
// a first_fit_sorted implicit-deadline engine a refused admission costs
// O(m log n) and allocates nothing (see refuseEarly); other engines
// still insert and roll back. A forced task must have D = P.
func (e *Engine) AdmitSummary(t dbf.Task, force bool) (Summary, error) {
	e.brief = true
	var res partition.Result
	var err error
	if force {
		res, _, err = e.ForceAdmit(task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period})
	} else {
		res, _, err = e.AdmitConstrained(t)
	}
	e.brief = false
	return e.summary(res, err, len(e.tasks)-1)
}

// RemoveSummary is Remove, or ForceRemove when force is set, answered
// as a Summary.
func (e *Engine) RemoveSummary(id int, force bool) (Summary, error) {
	e.brief = true
	remove := e.Remove
	if force {
		remove = e.ForceRemove
	}
	res, _, err := remove(id)
	e.brief = false
	return e.summary(res, err, -1)
}

// UpdateWCETSummary is UpdateWCET, or ForceUpdateWCET when force is set,
// answered as a Summary.
func (e *Engine) UpdateWCETSummary(id int, wcet int64, force bool) (Summary, error) {
	e.brief = true
	update := e.UpdateWCET
	if force {
		update = e.ForceUpdateWCET
	}
	res, _, err := update(id, wcet)
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
