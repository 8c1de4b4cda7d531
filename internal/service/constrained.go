package service

// Constrained-deadline sessions: the service face of the online engine's
// DBF admission. A session created with deadline_model "constrained"
// carries a relative deadline D ≤ P per task, held by the engine
// (online.Options.Deadlines), and answers every admission through its
// two tiers — density pre-filter, then the memoized exact
// processor-demand test — with verdicts identical to a fresh exact
// constrained first-fit solve. The op paths are the implicit sessions'
// own: the engine's constrained entry points take implicit tasks as the
// D = P case.
//
// A constrained engine cannot hold an infeasible set: only the sorted
// first-fit engine of an implicit session holds a failure state, and
// the constrained reference solve is dbf.FirstFit. So force commits are
// refused, sessions cannot be created infeasible, and a removal the
// engine refuses stays resident (rolled back).

import (
	"net/http"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/partition"
)

var (
	errConstrainedForce = &httpError{
		code: http.StatusBadRequest,
		msg:  "force is not supported in constrained-deadline sessions (its engine cannot hold an infeasible set)",
	}
	errConstrainedRepartition = &httpError{
		code: http.StatusConflict,
		msg:  "repartition is not supported in constrained-deadline sessions",
	}
	errConstrainedDeadline = &httpError{
		code: http.StatusBadRequest,
		msg:  "task deadlines require a constrained-deadline session (create with deadline_model \"constrained\")",
	}
)

// checkDeadlineArg vets a mutation's deadline argument against the
// session's model: implicit sessions only accept 0 or D = P, and
// constrained sessions refuse force.
func (s *session) checkDeadlineArg(dl, period int64, force bool) error {
	if !s.constrained {
		if dl != 0 && dl != period {
			return errConstrainedDeadline
		}
		return nil
	}
	if force {
		return errConstrainedForce
	}
	return nil
}

// constrainedTask builds the engine-facing task for one admission: a
// wire deadline of 0 means implicit (D = P), the form every session,
// implicit or constrained, hands the engine.
func constrainedTask(t partfeas.Task, dl int64) dbf.Task {
	if dl == 0 {
		dl = t.Period
	}
	return dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: dl, Period: t.Period}
}

// freshConstrainedReport runs a fresh exact constrained first-fit solve
// over the resident set at an ad-hoc alpha (the session engine's state
// is only valid at the session alpha). Caller holds s.mu.
//
// On rejection FirstFit leaves unplaced the task it failed on and every
// task after it in its own order (density descending, then deadline
// ascending, then input index), so the failed task is the unplaced task
// that order ranks first.
func (s *session) freshConstrainedReport(alpha float64) (partfeas.Report, error) {
	cs := s.eng.ConstrainedTasks()
	feasible, assignment, err := dbf.FirstFit(cs, s.in.Platform, alpha, 0)
	if err != nil {
		return partfeas.Report{}, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	res := partition.Result{
		Feasible:   feasible,
		Assignment: assignment,
		FailedTask: -1,
		Loads:      make([]float64, len(s.in.Platform)),
		Alpha:      alpha,
	}
	for i, j := range assignment {
		if j >= 0 {
			res.Loads[j] += s.in.Tasks[i].Utilization()
			continue
		}
		if f := res.FailedTask; f < 0 || cs[i].Density() > cs[f].Density() ||
			(cs[i].Density() == cs[f].Density() && cs[i].Deadline < cs[f].Deadline) {
			res.FailedTask = i
		}
	}
	return partfeas.Report{
		Accepted:  feasible,
		Scheduler: s.in.Scheduler,
		Alpha:     alpha,
		Partition: res,
	}, nil
}
