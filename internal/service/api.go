// Package service is the JSON-over-HTTP admission-control layer on top
// of the partfeas public API: stateless feasibility queries (/v1/test,
// /v1/minalpha, /v1/analyze), stateful admission sessions (/v1/sessions)
// with incremental WCET re-tests, a sharded cache of reusable Testers
// keyed by a canonical instance hash, and a Prometheus-text /metrics
// endpoint.
//
// Every decision the server makes goes through the same context-first
// library entry points an in-process caller would use (TestCtx,
// MinAlphaCtx, AnalyzeCtx), so server responses are byte-identical to
// direct library calls for the same instances — the handler tests and
// the servesmoke gate hold it to that.
package service

import (
	"fmt"

	"partfeas"
)

// TaskJSON is the wire form of one sporadic task. Deadline is only
// meaningful in constrained-deadline sessions: 0 (or omitted) means
// D = P, and any explicit value must satisfy WCET ≤ D ≤ P. Stateless
// endpoints and implicit-deadline sessions reject a deadline below the
// period rather than silently ignoring it.
type TaskJSON struct {
	Name     string `json:"name,omitempty"`
	WCET     int64  `json:"wcet"`
	Period   int64  `json:"period"`
	Deadline int64  `json:"deadline,omitempty"`
}

// MachineJSON is the wire form of one machine.
type MachineJSON struct {
	Name  string  `json:"name,omitempty"`
	Speed float64 `json:"speed"`
}

// InstanceRequest is the instance description shared by every request
// body. The platform is given either as bare "speeds" (machines named
// m0, m1, … like partfeas.NewPlatform) or as explicit "machines";
// exactly one of the two must be present.
type InstanceRequest struct {
	Tasks     []TaskJSON    `json:"tasks"`
	Speeds    []float64     `json:"speeds,omitempty"`
	Machines  []MachineJSON `json:"machines,omitempty"`
	Scheduler string        `json:"scheduler,omitempty"` // "edf" (default) or "rms"
}

// Instance converts and validates the wire form eagerly: a bad machine
// speed is rejected here, naming the machine index, before any solver is
// built. Constrained deadlines are rejected — only constrained-deadline
// sessions (which convert via instance(true)) accept them.
func (r InstanceRequest) Instance() (partfeas.Instance, error) {
	return r.instance(false)
}

// Deadlines resolves the wire tasks' relative deadlines (0 → period).
func (r InstanceRequest) Deadlines() []int64 {
	dls := make([]int64, len(r.Tasks))
	for i, t := range r.Tasks {
		dls[i] = t.Deadline
		if dls[i] == 0 {
			dls[i] = t.Period
		}
	}
	return dls
}

func (r InstanceRequest) instance(allowDeadlines bool) (partfeas.Instance, error) {
	var in partfeas.Instance
	if !allowDeadlines {
		for i, t := range r.Tasks {
			if t.Deadline != 0 && t.Deadline != t.Period {
				return in, fmt.Errorf("task %d: deadline %d below the period requires a constrained-deadline session", i, t.Deadline)
			}
		}
	}
	in.Tasks = make(partfeas.TaskSet, len(r.Tasks))
	for i, t := range r.Tasks {
		in.Tasks[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
	}
	switch {
	case len(r.Speeds) > 0 && len(r.Machines) > 0:
		return in, fmt.Errorf(`give the platform as "speeds" or "machines", not both`)
	case len(r.Speeds) > 0:
		in.Platform = partfeas.NewPlatform(r.Speeds...)
	default:
		in.Platform = make(partfeas.Platform, len(r.Machines))
		for i, m := range r.Machines {
			in.Platform[i] = partfeas.Machine{Name: m.Name, Speed: m.Speed}
		}
	}
	switch r.Scheduler {
	case "", "edf", "EDF":
		in.Scheduler = partfeas.EDF
	case "rms", "RMS":
		in.Scheduler = partfeas.RMS
	default:
		return in, fmt.Errorf("unknown scheduler %q (want \"edf\" or \"rms\")", r.Scheduler)
	}
	if err := in.Validate(); err != nil {
		return in, err
	}
	return in, nil
}

// TestRequest asks for one feasibility test.
type TestRequest struct {
	InstanceRequest
	// Alpha is the speed augmentation; 0 means 1 (original speeds).
	Alpha float64 `json:"alpha,omitempty"`
	// TimeoutMS bounds the request's wall time; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TestResponse is the outcome of one feasibility test. It is a pure
// function of the library Report (see TestResponseFrom), which is what
// makes served responses comparable byte-for-byte with direct calls.
type TestResponse struct {
	Accepted   bool      `json:"accepted"`
	Scheduler  string    `json:"scheduler"`
	Alpha      float64   `json:"alpha"`
	Assignment []int     `json:"assignment"`
	Loads      []float64 `json:"loads"`
	// FailedTask is the input index of the paper's τ_n on rejection, -1 on
	// acceptance.
	FailedTask int `json:"failed_task"`
}

// TestResponseFrom builds the wire response for a library Report. The
// slices are deep-copied, so the response stays valid after the Report's
// backing Tester or session engine answers its next query. That copy is
// what lets a session op release s.mu before WriteJSON encodes the
// response: encoding never runs under the session lock.
func TestResponseFrom(rep partfeas.Report) TestResponse {
	resp := TestResponse{
		Accepted:   rep.Accepted,
		Scheduler:  rep.Scheduler.String(),
		Alpha:      rep.Alpha,
		Assignment: append([]int(nil), rep.Partition.Assignment...),
		Loads:      append([]float64(nil), rep.Partition.Loads...),
		FailedTask: rep.Partition.FailedTask,
	}
	return resp
}

// MinAlphaRequest asks for the smallest accepted augmentation.
type MinAlphaRequest struct {
	InstanceRequest
	// Lo and Hi bracket the bisection; defaults 0.01 and 8.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Tol is the bisection tolerance; default 1e-6.
	Tol       float64 `json:"tol,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// MinAlphaResponse reports the bisection outcome; OK is false when even
// Hi does not suffice (Alpha is then 0).
type MinAlphaResponse struct {
	Alpha float64 `json:"alpha"`
	OK    bool    `json:"ok"`
}

// AnalyzeRequest asks for the full Analysis of one instance (the
// scheduler field is ignored: the analysis covers both).
type AnalyzeRequest struct {
	InstanceRequest
	// ExactBudget bounds the exact adversary's branch-and-bound nodes;
	// 0 uses the server default. Exhaustion degrades, it does not fail.
	ExactBudget int64 `json:"exact_budget,omitempty"`
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
}

// TheoremJSON is one theorem test inside an AnalyzeResponse.
type TheoremJSON struct {
	Theorem   string  `json:"theorem"`
	Scheduler string  `json:"scheduler"`
	Alpha     float64 `json:"alpha"`
	Accepted  bool    `json:"accepted"`
}

// AnalyzeResponse mirrors partfeas.Analysis on the wire.
type AnalyzeResponse struct {
	SigmaPartitioned      float64       `json:"sigma_partitioned"`
	SigmaPartitionedExact bool          `json:"sigma_partitioned_exact"`
	Degraded              bool          `json:"degraded"`
	SigmaMigratory        float64       `json:"sigma_migratory"`
	Theorems              []TheoremJSON `json:"theorems"`
	MinAlphaEDF           float64       `json:"min_alpha_edf"`
	MinAlphaRMS           float64       `json:"min_alpha_rms"`
}

// AnalyzeResponseFrom builds the wire response for a library Analysis.
func AnalyzeResponseFrom(a *partfeas.Analysis) AnalyzeResponse {
	resp := AnalyzeResponse{
		SigmaPartitioned:      a.SigmaPartitioned,
		SigmaPartitionedExact: a.SigmaPartitionedExact,
		Degraded:              a.Degraded,
		SigmaMigratory:        a.SigmaMigratory,
		Theorems:              make([]TheoremJSON, len(partfeas.Theorems)),
		MinAlphaEDF:           a.MinAlphaEDF,
		MinAlphaRMS:           a.MinAlphaRMS,
	}
	for i, thm := range partfeas.Theorems {
		resp.Theorems[i] = TheoremJSON{
			Theorem:   thm.String(),
			Scheduler: a.Reports[i].Scheduler.String(),
			Alpha:     a.Reports[i].Alpha,
			Accepted:  a.Reports[i].Accepted,
		}
	}
	return resp
}

// CreateSessionRequest opens a stateful admission session.
type CreateSessionRequest struct {
	InstanceRequest
	// Alpha is the augmentation every admission decision in this session
	// is made at; 0 means 1.
	Alpha float64 `json:"alpha,omitempty"`
	// Placement selects the session engine's placement policy:
	// "first_fit_sorted" (default) keeps every decision byte-identical
	// to the paper's fresh utilization-sorted solve; "first_fit_arrival",
	// "best_fit", "worst_fit" and "k_choices" place tasks as they arrive
	// — O(m) mutations that forfeit the sorted-order guarantee, with the
	// drift measured and repaired via the repartition endpoint. The
	// legacy names "sorted" and "arrival" are accepted as aliases; the
	// response's placement field always echoes the resolved canonical
	// name. Unknown values are a 400 naming the offending value.
	Placement string `json:"placement,omitempty"`
	// DeadlineModel selects the admission analysis: "implicit" (default)
	// tests utilization bounds with D = P; "constrained" accepts per-task
	// deadlines D ≤ P and admits through the tiered demand-bound-function
	// pipeline (density pre-filter → approximate DBF band → exact test).
	// Constrained sessions require the EDF scheduler, are engine-only (no
	// force commits, no infeasible resident states, no repartition), and
	// their decisions stay identical to a fresh exact constrained
	// first-fit solve over the resident set.
	DeadlineModel string `json:"deadline_model,omitempty"`
	TimeoutMS     int64  `json:"timeout_ms,omitempty"`
}

// SessionResponse describes a session's current state.
type SessionResponse struct {
	ID            string        `json:"id"`
	Scheduler     string        `json:"scheduler"`
	Alpha         float64       `json:"alpha"`
	Placement     string        `json:"placement"`
	DeadlineModel string        `json:"deadline_model,omitempty"`
	Tasks         []TaskJSON    `json:"tasks"`
	Machines      []MachineJSON `json:"machines"`
	Test          TestResponse  `json:"test"`
	// Durability reports how the acknowledgement is backed: "wal" when
	// the op was appended to the write-ahead log before this response,
	// "none" when the server runs without a data directory.
	Durability string `json:"durability,omitempty"`
}

// AddTaskRequest admits one more task into a session.
type AddTaskRequest struct {
	Task TaskJSON `json:"task"`
	// Force commits the change even when the re-test rejects.
	Force     bool  `json:"force,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AdmitBatchRequest offers several tasks to a session at once. The
// engine places the whole batch with one merged suffix replay, so a
// batch of interior-landing tasks costs roughly one replay instead of
// one per task; verdicts are identical to admitting the tasks one at a
// time in input order.
type AdmitBatchRequest struct {
	Tasks []TaskJSON `json:"tasks"`
	// Mode is "best_effort" (default: admit the subset sequential
	// admission would admit) or "all_or_nothing" (the batch commits
	// atomically or not at all).
	Mode      string `json:"mode,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// BatchAdmissionResponse is the outcome of one admit-batch call.
type BatchAdmissionResponse struct {
	Mode string `json:"mode"`
	// Admitted holds one verdict per input task, in input order.
	Admitted []bool `json:"admitted"`
	// NAdmitted counts true verdicts; NTasks is the session's task count
	// after the operation.
	NAdmitted int `json:"n_admitted"`
	NTasks    int `json:"n_tasks"`
	// Test is the session state after the batch on any admission, or the
	// rejection witness when nothing was admitted.
	Test TestResponse `json:"test"`
	// Durability reports how the acknowledgement is backed: "wal" when
	// the op was appended to the write-ahead log before this response,
	// "none" when the server runs without a data directory.
	Durability string `json:"durability,omitempty"`
}

// UpdateWCETRequest changes one task's WCET: an incremental re-test via
// the session's online engine, or a fresh batch test of the updated set
// while the resident set is infeasible (engine disarmed).
type UpdateWCETRequest struct {
	Index     int   `json:"index"`
	WCET      int64 `json:"wcet"`
	Force     bool  `json:"force,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SessionTestRequest re-tests a session, optionally at a different
// augmentation (0 keeps the session alpha).
type SessionTestRequest struct {
	Alpha     float64 `json:"alpha,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// AdmissionResponse is the outcome of a mutating session operation.
type AdmissionResponse struct {
	// Admitted is true when the mutated set passes the session's test (or
	// Force was set).
	Admitted bool `json:"admitted"`
	// RolledBack is true when the mutation was undone because the re-test
	// rejected and Force was not set.
	RolledBack bool `json:"rolled_back"`
	// NTasks is the session's task count after the operation.
	NTasks int `json:"n_tasks"`
	// Test is the re-test outcome for the mutated (or rolled-back
	// tentative) set.
	Test TestResponse `json:"test"`
	// Durability reports how the acknowledgement is backed: "wal" when
	// the op was appended to the write-ahead log before this response,
	// "none" when the server runs without a data directory.
	Durability string `json:"durability,omitempty"`
}

// RepartitionRequest measures (and optionally repairs) the drift between
// a session's live placement and the paper's sorted first-fit over the
// same task multiset.
type RepartitionRequest struct {
	// Apply migrates tasks toward the sorted placement; false only
	// reports the plan.
	Apply bool `json:"apply,omitempty"`
	// MaxMoves bounds the number of migrations applied in this call
	// (each applied move is individually feasibility-preserving); 0 or
	// ≥ the plan size applies the full plan atomically.
	MaxMoves  int   `json:"max_moves,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MoveJSON is one task migration in a repartition plan.
type MoveJSON struct {
	Task int `json:"task"`
	From int `json:"from"`
	To   int `json:"to"`
}

// RepartitionResponse reports a session's drift from the sorted solve
// and what, if anything, was migrated.
type RepartitionResponse struct {
	Placement string `json:"placement"`
	// TargetFeasible is false when the sorted solve over the resident
	// multiset fails at the session alpha (possible for arrival-order
	// sessions; nothing is applied then).
	TargetFeasible bool `json:"target_feasible"`
	// MovesTotal is the full plan size; Moves lists it.
	MovesTotal int        `json:"moves_total"`
	Moves      []MoveJSON `json:"moves"`
	// DriftFraction is MovesTotal over the resident task count.
	DriftFraction float64 `json:"drift_fraction"`
	// MaxLoadDelta is the largest per-machine |current − target| load.
	MaxLoadDelta float64 `json:"max_load_delta"`
	// Applied counts migrations performed by this call; Partial is true
	// when drift remains (MaxMoves was binding or moves were skipped).
	Applied int  `json:"applied"`
	Partial bool `json:"partial"`
	// Test is the session's state after any migrations.
	Test TestResponse `json:"test"`
	// Durability reports how the acknowledgement is backed: "wal" when
	// the op was appended to the write-ahead log before this response,
	// "none" when the server runs without a data directory.
	Durability string `json:"durability,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
