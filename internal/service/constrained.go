package service

// Constrained-deadline sessions: the service face of the online engine's
// DBF admission. A session created with deadline_model "constrained"
// carries a relative deadline D ≤ P per task, held by the engine
// (online.Options.Deadlines), and answers every admission through its
// two tiers — density pre-filter, then the exact processor-demand test,
// decided by QPA — with verdicts identical to a fresh exact constrained
// first-fit solve (dbf.FirstFit). The op paths are the implicit
// sessions' own: the engine's constrained entry points take implicit
// tasks as the D = P case, and a first_fit_sorted constrained engine
// holds dbf.FirstFit's failure state as an implicit one holds the
// partition solver's, so force commits, infeasible creates and removals
// the engine refuses commit in both models. Only the input checks below
// and the repartition refusal are the model's own.

import (
	"net/http"

	"partfeas"
	"partfeas/internal/dbf"
)

var (
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
// session's model: implicit sessions only accept 0 or D = P.
func (s *session) checkDeadlineArg(dl, period int64) error {
	if !s.constrained && dl != 0 && dl != period {
		return errConstrainedDeadline
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
func (s *session) freshConstrainedReport(alpha float64) (partfeas.Report, error) {
	res, err := dbf.FirstFitResult(s.eng.ConstrainedTasks(), s.in.Platform, alpha, 0)
	if err != nil {
		return partfeas.Report{}, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return partfeas.Report{
		Accepted:  res.Feasible,
		Scheduler: s.in.Scheduler,
		Alpha:     alpha,
		Partition: res,
	}, nil
}
