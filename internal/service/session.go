package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
	"partfeas/internal/partition"
	"partfeas/internal/pipeline"
)

// session is one live admission-control session: a task set under
// negotiation against a fixed platform and scheduler, plus the
// incremental online.Engine that serves it.
//
// Every op has one body. Mutations are served by the engine, which keeps
// live per-machine load state, so an admit/remove/update costs a suffix
// replay (typically O(log m)) instead of a full re-solve. The session
// always calls the engine's deadline-agnostic entry points
// (AdmitConstrained, AdmitBatchConstrained): implicit tasks are the D = P
// case, so implicit and constrained-deadline sessions share every op
// path, and the engine is the one copy of each task's deadline.
//
// The engine only represents feasible states. When an implicit session's
// resident set turns infeasible — a force commit, or a removal the engine
// refuses — the engine disarms (eng == nil) and every op goes through the
// session's one fallback, resolveLocked, which re-solves the candidate
// set with the paper's batch test; the engine re-arms on the next
// feasible commit.
//
// Placement is the engine's placement policy (online.Policy):
// first_fit_sorted sessions stay byte-identical to the paper's fresh
// sorted solve at every step; every other policy (first_fit_arrival,
// best_fit, worst_fit, k_choices) places tasks as they arrive — the
// drift that accumulates against the sorted guarantee is measured and
// repaired via repartition().
//
// The per-session mutex serializes operations, so concurrent clients of
// one session see a linearizable task set; distinct sessions share
// nothing and proceed in parallel.
type session struct {
	mu        sync.Mutex
	id        string
	in        partfeas.Instance
	alpha     float64
	placement online.Policy
	eng       *online.Engine // nil (disarmed) while the resident set is (force-)infeasible
	closed    bool
	mx        *Metrics    // per-path admission metrics; nil in bare tests
	dur       *durability // WAL ack gate; nil without -data-dir (all calls nil-safe)

	// Cluster ownership (see migrate.go). epoch is the session's
	// ownership epoch: 1 at creation, incremented once per completed
	// migration, and the fencing token that keeps a stale owner from
	// acknowledging mutations the new owner's state lacks. fenced refuses
	// mutations while a handoff is between its fence and cutover points;
	// migrating marks an outbound transfer whose post-snapshot ops are
	// being captured into tail; noLog suppresses WAL appends while a
	// staged inbound copy replays its tail (the MigrateIn record carries
	// the final state instead).
	epoch     uint64
	fenced    bool
	migrating bool
	noLog     bool
	tail      []*oplog.Op

	// Constrained-deadline sessions (deadline_model "constrained") admit
	// through the engine's tiered DBF pipeline. They have no batch
	// fallback, so the engine is always armed, and force commits and
	// repartition are refused.
	constrained bool
}

// sessionStore owns the id → session map.
type sessionStore struct {
	mu  sync.Mutex
	seq uint64
	max int
	m   map[string]*session
	mx  *Metrics    // propagated into every session it creates
	dur *durability // propagated likewise; nil without -data-dir

	// staging holds inbound migrations between prepare and commit, keyed
	// by session id; moved holds outbound tombstones (id → new owner)
	// that answer every later request with a 421 redirect. A moved entry
	// retains the session's final state until the destination
	// acknowledges the commit, so a source that crashed (or lost the ack)
	// can re-drive the handoff idempotently.
	staging map[string]*stagedSession
	moved   map[string]*movedSession
}

func newSessionStore(max int) *sessionStore {
	if max <= 0 {
		max = 1024
	}
	return &sessionStore{
		max:     max,
		m:       map[string]*session{},
		staging: map[string]*stagedSession{},
		moved:   map[string]*movedSession{},
	}
}

func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// create opens a session. It validates nothing itself — the handler
// passes a decoded, validated instance. The instance is deep-copied so
// later request buffers cannot alias session state. dls holds the
// relative deadlines of a constrained-deadline session and is nil for an
// implicit one. id, when non-empty, is a caller-assigned session id (the
// cluster coordinator assigns ids so the consistent-hash ring can route
// the session before it exists); empty means the store assigns the next
// "s-<n>".
//
// Implicit sessions may open infeasible: they just start disarmed, on
// the fallback. A constrained session has none, so a set the tiered
// pipeline cannot place fails creation with 409, and a typed analysis
// error (horizon or demand overflow) is surfaced rather than downgraded
// to a verdict.
func (st *sessionStore) create(in partfeas.Instance, dls []int64, alpha float64, placement online.Policy, id string) (*session, error) {
	defer st.dur.rlock()()
	s := &session{
		in: partfeas.Instance{
			Tasks:     in.Tasks.Clone(),
			Platform:  in.Platform.Clone(),
			Scheduler: in.Scheduler,
		},
		alpha:       alpha,
		placement:   placement,
		constrained: dls != nil,
		epoch:       1,
		mx:          st.mx,
		dur:         st.dur,
	}
	if s.constrained && in.Scheduler != partfeas.EDF {
		return nil, &httpError{code: http.StatusBadRequest, msg: "constrained-deadline sessions require the EDF scheduler"}
	}
	eng, err := online.NewEngine(s.in.Tasks, s.in.Platform, s.engineOptions(dls))
	switch {
	case err == nil:
		s.eng = eng
	case !s.constrained && errors.Is(err, online.ErrInfeasible):
		// Opens disarmed, on the fallback.
	case !s.constrained:
		return nil, badRequest("%v", err)
	case errors.Is(err, online.ErrInfeasible):
		return nil, &httpError{code: http.StatusConflict, msg: fmt.Sprintf("constrained session: %v", err)}
	default:
		return nil, badRequest("constrained session: %v", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.assignID(s, id); err != nil {
		return nil, err
	}
	if err := st.dur.logOp(createOp(s)); err != nil {
		if id == "" {
			st.seq--
		}
		return nil, err
	}
	st.m[s.id] = s
	return s, nil
}

// assignID gives s its id under st.mu: the next "s-<n>" when id is
// empty, or the caller's explicit id after uniqueness and shape checks.
// Explicit auto-shaped ids advance seq past their number so a later
// store-assigned id can never collide (WAL replay recreates sessions by
// their recorded explicit ids and relies on this).
func (st *sessionStore) assignID(s *session, id string) error {
	if len(st.m) >= st.max {
		return &httpError{code: http.StatusTooManyRequests, msg: fmt.Sprintf("session limit %d reached", st.max)}
	}
	if id == "" {
		st.seq++
		s.id = fmt.Sprintf("s-%d", st.seq)
		return nil
	}
	if err := checkSessionID(id); err != nil {
		return err
	}
	if _, ok := st.m[id]; ok {
		return &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session %q already exists", id)}
	}
	if _, ok := st.moved[id]; ok {
		return &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session id %q was migrated away and is retired here", id)}
	}
	if n, ok := autoSeq(id); ok && n > st.seq {
		st.seq = n
	}
	s.id = id
	return nil
}

// checkSessionID vets an explicit session id at the boundary.
func checkSessionID(id string) error {
	if len(id) > 128 {
		return badRequest("session id longer than 128 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return badRequest("session id %q contains %q (want [A-Za-z0-9._-])", id, string(c))
		}
	}
	return nil
}

// autoSeq parses a store-assigned "s-<n>" id; ok is false for any other
// shape (coordinator ids, client ids).
func autoSeq(id string) (uint64, bool) {
	if len(id) < 3 || id[0] != 's' || id[1] != '-' || id[2] == '0' {
		return 0, false
	}
	var n uint64
	for i := 2; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' || n > (^uint64(0)-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// createOp encodes a session creation (the last fallible step before the
// store insert, so a logged create always replays successfully).
func createOp(s *session) *oplog.Op {
	op := &oplog.Op{
		Type:      oplog.TypeCreate,
		Session:   s.id,
		Alpha:     s.alpha,
		Scheduler: s.in.Scheduler.String(),
		Placement: s.placement.Name(),
		Machines:  make([]oplog.Machine, len(s.in.Platform)),
		Tasks:     make([]oplog.Task, len(s.in.Tasks)),
	}
	if s.constrained {
		op.DeadlineModel = "constrained"
	}
	for i, m := range s.in.Platform {
		op.Machines[i] = oplog.Machine{Name: m.Name, Speed: m.Speed}
	}
	for i, t := range s.in.Tasks {
		op.Tasks[i] = oplog.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if s.constrained {
			op.Tasks[i].Deadline = s.eng.Deadline(i)
		}
	}
	return op
}

func (st *sessionStore) get(id string) (*session, error) {
	st.mu.Lock()
	s, ok := st.m[id]
	var mv *movedSession
	if !ok {
		mv = st.moved[id]
	}
	st.mu.Unlock()
	if !ok {
		if mv != nil {
			return nil, movedErr(id, mv.target)
		}
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", id)}
	}
	return s, nil
}

func (st *sessionStore) remove(id string) error {
	defer st.dur.rlock()()
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	if !ok {
		if mv := st.moved[id]; mv != nil {
			return movedErr(id, mv.target)
		}
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", id)}
	}
	// The destroy record must be the session's last WAL op. Every
	// per-session mutation checks s.closed under s.mu before logging its
	// own op, so holding s.mu across the TypeDestroy append and the close
	// guarantees no mutation record can land after it — replay would
	// otherwise apply the destroy first and refuse to start on the
	// orphaned mutation op. (Lock order st.mu → s.mu matches the
	// documented gate → store → session hierarchy; nothing acquires them
	// in the opposite order.)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return errFenced
	}
	if s.migrating {
		// Destroy wins over an in-flight outbound transfer: abort the
		// capture here; the migration goroutine observes migrating ==
		// false at its fence step and reports the transfer failed.
		s.migrating = false
		s.tail = nil
	}
	if err := st.dur.logOp(&oplog.Op{Type: oplog.TypeDestroy, Session: id}); err != nil {
		return err
	}
	s.closed = true
	delete(st.m, id)
	return nil
}

var errSessionClosed = &httpError{code: http.StatusNotFound, msg: "session closed"}

// errFenced answers mutations that land between a migration's fence and
// its cutover: the op was not acknowledged; retry shortly and the 421
// redirect (or the unfenced session, if the transfer aborted) will
// answer. The migration flag marks the 503 as a transient handoff stall
// so forwarders can retry it internally instead of surfacing it — unlike
// the WAL-degraded 503, which must reach the client unchanged.
var errFenced = &httpError{
	code:       http.StatusServiceUnavailable,
	msg:        "session ownership is being transferred; retry",
	retryAfter: 1,
	migration:  true,
}

// movedErr is the tombstone answer after cutover: the session lives on
// another replica, named in the X-Session-Owner header.
func movedErr(id, target string) *httpError {
	return &httpError{
		code:  http.StatusMisdirectedRequest,
		msg:   fmt.Sprintf("session %q migrated to %s", id, target),
		owner: target,
	}
}

// guard is every mutation's closed/fenced check, taken under s.mu before
// the op is logged: a fenced session acknowledges nothing, which is what
// makes the ownership epoch a real fence and not advice.
func (s *session) guard() error {
	if s.closed {
		return errSessionClosed
	}
	if s.fenced {
		return errFenced
	}
	return nil
}

// logOp is the session-level acknowledgement point: the WAL append (ack)
// plus, while an outbound migration is capturing, the tail record that
// will be streamed to the new owner. Caller holds s.mu, which is what
// makes "tail = exactly the acknowledged ops after the snapshot" exact.
func (s *session) logOp(op *oplog.Op) error {
	if s.noLog {
		return nil // staged inbound replay: the MigrateIn record carries the state
	}
	if err := s.dur.logOp(op); err != nil {
		return err
	}
	if s.migrating {
		s.tail = append(s.tail, op)
	}
	return nil
}

// engineOptions are the session's engine options; dls is nil for an
// implicit-deadline engine. The scheduler was validated at the boundary,
// and constrained engines ignore Admission.
func (s *session) engineOptions(dls []int64) online.Options {
	adm, _ := s.in.Scheduler.Admission()
	return online.Options{
		Policy: s.placement, Alpha: s.alpha, Admission: adm,
		Deadlines: dls, ApproxK: sessionApproxK,
	}
}

// armEngine rebuilds an implicit session's engine over the current task
// set. On failure (the set is infeasible at the session augmentation) the
// session stays disarmed. Caller holds s.mu.
func (s *session) armEngine() {
	if eng, err := online.NewEngine(s.in.Tasks, s.in.Platform, s.engineOptions(nil)); err == nil {
		s.eng = eng
	}
}

// resolveLocked is the one fallback for a resident set the engine cannot
// hold; implicit sessions only, caller holds s.mu. The candidate is
// validated first, so a bad one answers 400 whether or not the engine is
// armed.
//
// While the session is disarmed, the paper's batch test re-solves the
// candidate from scratch at the session alpha: it commits when the test
// accepts it or force is set, and the engine re-arms as soon as the
// committed set is feasible. An armed engine has already refused cand
// (the caller is forcing it), so its verdict stands: cand commits without
// a re-test and the engine disarms; the returned Report is then empty and
// the caller answers with the engine's witness.
func (s *session) resolveLocked(ctx context.Context, cand partfeas.TaskSet, force bool) (partfeas.Report, error) {
	in := partfeas.Instance{Tasks: cand, Platform: s.in.Platform, Scheduler: s.in.Scheduler}
	if err := in.Validate(); err != nil {
		return partfeas.Report{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	var rep partfeas.Report
	if s.eng == nil {
		var err error
		if rep, err = partfeas.TestCtx(ctx, in, s.alpha); err != nil || !(rep.Accepted || force) {
			return rep, err
		}
	}
	s.in.Tasks, s.eng = cand, nil
	if rep.Accepted {
		s.armEngine()
	}
	return rep, nil
}

// ctxGuard mirrors Tester.TestCtx's contract on the engine path: an
// expired or cancelled context yields the same *pipeline.Error shape, so
// clients cannot tell which path answered.
func ctxGuard(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		return pipeline.New(pipeline.StageAnalyze, "Test", cerr)
	}
	return nil
}

// engReport wraps an engine partition result as the library Report the
// wire layer encodes.
func (s *session) engReport(res partition.Result) partfeas.Report {
	return partfeas.Report{
		Accepted:  res.Feasible,
		Scheduler: s.in.Scheduler,
		Alpha:     res.Alpha,
		Partition: res,
	}
}

// currentReport answers "test the resident set at the session alpha"
// from the engine when armed, else from a fresh batch test.
func (s *session) currentReport(ctx context.Context) (partfeas.Report, error) {
	if s.eng == nil {
		return partfeas.TestCtx(ctx, s.in, s.alpha)
	}
	if err := ctxGuard(ctx); err != nil {
		return partfeas.Report{}, err
	}
	return s.engReport(s.eng.Result()), nil
}

// state snapshots the session and re-tests it at its alpha.
func (s *session) state(ctx context.Context) (SessionResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionResponse{}, errSessionClosed
	}
	rep, err := s.currentReport(ctx)
	if err != nil {
		return SessionResponse{}, err
	}
	resp := SessionResponse{
		ID:        s.id,
		Scheduler: s.in.Scheduler.String(),
		Alpha:     s.alpha,
		Placement: s.placement.Name(),
		Tasks:     make([]TaskJSON, len(s.in.Tasks)),
		Machines:  make([]MachineJSON, len(s.in.Platform)),
		Test:      TestResponseFrom(rep),
	}
	if s.constrained {
		resp.DeadlineModel = "constrained"
	}
	for i, t := range s.in.Tasks {
		resp.Tasks[i] = TaskJSON{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if s.constrained && s.eng.Deadline(i) != t.Period {
			resp.Tasks[i].Deadline = s.eng.Deadline(i)
		}
	}
	for i, m := range s.in.Platform {
		resp.Machines[i] = MachineJSON{Name: m.Name, Speed: m.Speed}
	}
	return resp, nil
}

// test re-tests the current set; alpha 0 keeps the session augmentation.
// Ad-hoc alphas always run a fresh solve (the engine's state is only
// valid at the session alpha): the batch sorted test, or for constrained
// sets the exact constrained first-fit.
func (s *session) test(ctx context.Context, alpha float64) (TestResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return TestResponse{}, errSessionClosed
	}
	var rep partfeas.Report
	var err error
	switch {
	case alpha == 0 || alpha == s.alpha:
		rep, err = s.currentReport(ctx)
	case s.constrained:
		if err = ctxGuard(ctx); err == nil {
			rep, err = s.freshConstrainedReport(alpha)
		}
	default:
		rep, err = partfeas.TestCtx(ctx, s.in, alpha)
	}
	if err != nil {
		return TestResponse{}, err
	}
	return TestResponseFrom(rep), nil
}

// addTask tentatively admits one more task: committed only on acceptance
// (or force). The armed engine answers incrementally; a force-committed
// rejection disarms it until the set is feasible again.
func (s *session) addTask(ctx context.Context, t partfeas.Task, dl int64, force bool) (AdmissionResponse, error) {
	defer s.dur.rlock()()
	if err := s.checkDeadlineArg(dl, t.Period, force); err != nil {
		return AdmissionResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addTaskLocked(ctx, t, dl, force)
}

// addTaskLocked is the single-admit body; the caller holds s.mu. The op
// is acknowledged (logged) before any state changes and applied with
// cancellation stripped, so a durable admit is all-or-nothing.
func (s *session) addTaskLocked(ctx context.Context, t partfeas.Task, dl int64, force bool) (AdmissionResponse, error) {
	if err := s.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if err := ctxGuard(ctx); err != nil {
		return AdmissionResponse{}, err
	}
	if err := s.logOp(&oplog.Op{
		Type: oplog.TypeAdmit, Session: s.id, Force: force,
		Tasks: []oplog.Task{{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: dl}},
	}); err != nil {
		return AdmissionResponse{}, err
	}
	ctx = s.dur.applyCtx(ctx)
	if s.eng == nil {
		rep, err := s.resolveLocked(ctx, append(s.in.Tasks.Clone(), t), force)
		if err != nil {
			return AdmissionResponse{}, err
		}
		admitted := rep.Accepted || force
		return AdmissionResponse{Admitted: admitted, RolledBack: !admitted, NTasks: len(s.in.Tasks), Test: TestResponseFrom(rep)}, nil
	}
	start := time.Now()
	res, admitted, err := s.eng.AdmitConstrained(constrainedTask(t, dl))
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	s.observeAdmission(start)
	resp := AdmissionResponse{Admitted: admitted || force, Test: TestResponseFrom(s.engReport(res))}
	switch {
	case admitted:
		s.in.Tasks = append(s.in.Tasks, t)
	case force:
		if _, err := s.resolveLocked(ctx, append(s.in.Tasks.Clone(), t), true); err != nil {
			return AdmissionResponse{}, err
		}
	default:
		resp.RolledBack = true
	}
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// observeAdmission classifies the engine's most recent single admit as
// tail or interior and records its latency; constrained admissions also
// record which DBF tier decided them. Caller holds s.mu and must call
// this immediately after the engine operation.
func (s *session) observeAdmission(start time.Time) {
	if s.mx == nil {
		return
	}
	p := PathInterior
	if s.eng.LastOpStats().Tail {
		p = PathTail
	}
	d := time.Since(start)
	s.mx.AdmissionObserved(p, d)
	s.observeTier(d)
}

// observeTier records the deepest DBF tier the engine's last op used
// (no-op for implicit-deadline ops). Caller holds s.mu.
func (s *session) observeTier(d time.Duration) {
	if s.mx == nil || s.eng == nil {
		return
	}
	if tp, ok := TierPath(s.eng.LastOpStats().MaxTier); ok {
		s.mx.AdmissionObserved(tp, d)
	}
}

// addTaskBatch admits several tasks in one call: per-task verdicts are
// identical to admitting the tasks one at a time in input order
// (best-effort mode), or the batch commits atomically or not at all
// (all-or-nothing mode). dls is nil when the request carried no
// deadlines.
func (s *session) addTaskBatch(ctx context.Context, ts []partfeas.Task, dls []int64, mode online.BatchMode) (BatchAdmissionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return BatchAdmissionResponse{}, err
	}
	for i := range ts {
		if err := s.checkDeadlineArg(deadlineAt(dls, i), ts[i].Period, false); err != nil {
			return BatchAdmissionResponse{}, err
		}
	}
	if len(ts) == 0 {
		rep, err := s.currentReport(ctx)
		if err != nil {
			return BatchAdmissionResponse{}, err
		}
		return s.batchResponse(mode, []bool{}, rep), nil
	}
	if err := ctxGuard(ctx); err != nil {
		return BatchAdmissionResponse{}, err
	}
	return s.admitBatchLocked(ctx, ts, dls, mode)
}

// admitBatchLocked is the batch body; the caller holds s.mu and has run
// the guards. It logs the op, then runs the batch through the armed
// engine — one merged suffix replay — and records its latency. While the
// resident set is infeasible the batch goes through resolveLocked
// instead: one union test decides an all-or-nothing batch (which then
// degenerates to reject-all, since adding tasks cannot restore
// feasibility), and a best-effort batch tests each task in order against
// the then-current set until feasibility returns, when the engine
// finishes the rest.
func (s *session) admitBatchLocked(ctx context.Context, ts []partfeas.Task, dls []int64, mode online.BatchMode) (BatchAdmissionResponse, error) {
	op := &oplog.Op{
		Type: oplog.TypeAdmitBatch, Session: s.id,
		BatchMode: mode.String(),
		Tasks:     make([]oplog.Task, len(ts)),
	}
	for i, t := range ts {
		op.Tasks[i] = oplog.Task{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: deadlineAt(dls, i)}
	}
	if err := s.logOp(op); err != nil {
		return BatchAdmissionResponse{}, err
	}
	ctx = s.dur.applyCtx(ctx)
	if s.eng != nil {
		start := time.Now()
		res, admitted, err := s.engineBatch(ts, dls, mode)
		if err != nil {
			return BatchAdmissionResponse{}, err
		}
		if s.mx != nil {
			d := time.Since(start)
			s.mx.AdmissionObserved(PathBatch, d)
			s.observeTier(d)
		}
		return s.batchResponse(mode, admitted, s.engReport(res)), nil
	}
	admitted := make([]bool, len(ts))
	if mode == online.AllOrNothing {
		rep, err := s.resolveLocked(ctx, append(s.in.Tasks.Clone(), ts...), false)
		if err != nil {
			return BatchAdmissionResponse{}, err
		}
		for i := range admitted {
			admitted[i] = rep.Accepted
		}
		return s.batchResponse(mode, admitted, rep), nil
	}
	var rep partfeas.Report
	for i, t := range ts {
		if s.eng != nil {
			// Feasibility returned mid-batch: the engine finishes it.
			if err := ctxGuard(ctx); err != nil {
				return BatchAdmissionResponse{}, err
			}
			_, rest, err := s.engineBatch(ts[i:], nil, online.BestEffort)
			if err != nil {
				return BatchAdmissionResponse{}, err
			}
			copy(admitted[i:], rest)
			break
		}
		var err error
		if rep, err = s.resolveLocked(ctx, append(s.in.Tasks.Clone(), t), false); err != nil {
			return BatchAdmissionResponse{}, err
		}
		admitted[i] = rep.Accepted
	}
	if s.eng != nil {
		rep = s.engReport(s.eng.Result())
	}
	return s.batchResponse(mode, admitted, rep), nil
}

// engineBatch runs ts through the armed engine as one batch and appends
// the admitted tasks. Caller holds s.mu.
func (s *session) engineBatch(ts []partfeas.Task, dls []int64, mode online.BatchMode) (partition.Result, []bool, error) {
	cs := make(dbf.Set, len(ts))
	for i, t := range ts {
		cs[i] = constrainedTask(t, deadlineAt(dls, i))
	}
	res, admitted, err := s.eng.AdmitBatchConstrained(cs, mode)
	if err != nil {
		return res, nil, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	for i, ok := range admitted {
		if ok {
			s.in.Tasks = append(s.in.Tasks, ts[i])
		}
	}
	return res, admitted, nil
}

// batchResponse answers a batch over the session's committed set.
func (s *session) batchResponse(mode online.BatchMode, admitted []bool, rep partfeas.Report) BatchAdmissionResponse {
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	return BatchAdmissionResponse{
		Mode:      mode.String(),
		Admitted:  admitted,
		NAdmitted: n,
		NTasks:    len(s.in.Tasks),
		Test:      TestResponseFrom(rep),
	}
}

// deadlineAt is task i's wire deadline, 0 (implicit) when the request
// carried none.
func deadlineAt(dls []int64, i int) int64 {
	if dls == nil {
		return 0
	}
	return dls[i]
}

// removeTask always commits (releasing load cannot be refused) and
// reports the re-test of the shrunken set. Sorted first-fit is not
// monotone under removals, so the engine can (rarely) refuse a removal
// whose shrunken set re-solves infeasible — an implicit session still
// commits it, through resolveLocked; a constrained one keeps the task
// resident and answers with the rejection witness.
func (s *session) removeTask(ctx context.Context, idx int) (AdmissionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if idx < 0 || idx >= len(s.in.Tasks) {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("task index %d out of range [0, %d)", idx, len(s.in.Tasks))}
	}
	if len(s.in.Tasks) == 1 {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: "cannot remove the last task; delete the session instead"}
	}
	if err := ctxGuard(ctx); err != nil {
		return AdmissionResponse{}, err
	}
	if err := s.logOp(&oplog.Op{Type: oplog.TypeRemove, Session: s.id, Target: idx}); err != nil {
		return AdmissionResponse{}, err
	}
	ctx = s.dur.applyCtx(ctx)
	if s.eng == nil {
		rep, err := s.resolveLocked(ctx, without(s.in.Tasks, idx), true)
		if err != nil {
			return AdmissionResponse{}, err
		}
		return AdmissionResponse{Admitted: rep.Accepted, NTasks: len(s.in.Tasks), Test: TestResponseFrom(rep)}, nil
	}
	res, ok, err := s.eng.Remove(idx)
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	resp := AdmissionResponse{Admitted: ok, Test: TestResponseFrom(s.engReport(res))}
	switch {
	case ok:
		// The engine holds its own copy of the tasks, so the session's
		// slice is deleted from in place.
		s.in.Tasks = slices.Delete(s.in.Tasks, idx, idx+1)
	case s.constrained:
		resp.RolledBack = true
	default:
		if _, err := s.resolveLocked(ctx, without(s.in.Tasks, idx), true); err != nil {
			return AdmissionResponse{}, err
		}
	}
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// updateWCET changes one task's WCET through the engine's incremental
// path, rolling back when the re-test rejects and force is unset.
func (s *session) updateWCET(ctx context.Context, idx int, wcet int64, force bool) (AdmissionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if idx < 0 || idx >= len(s.in.Tasks) {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("task index %d out of range [0, %d)", idx, len(s.in.Tasks))}
	}
	if s.constrained && force {
		return AdmissionResponse{}, errConstrainedForce
	}
	if err := ctxGuard(ctx); err != nil {
		return AdmissionResponse{}, err
	}
	if err := s.logOp(&oplog.Op{Type: oplog.TypeUpdateWCET, Session: s.id, Target: idx, WCET: wcet, Force: force}); err != nil {
		return AdmissionResponse{}, err
	}
	ctx = s.dur.applyCtx(ctx)
	if s.eng == nil {
		rep, err := s.resolveLocked(ctx, withWCET(s.in.Tasks, idx, wcet), force)
		if err != nil {
			return AdmissionResponse{}, err
		}
		admitted := rep.Accepted || force
		return AdmissionResponse{Admitted: admitted, RolledBack: !admitted, NTasks: len(s.in.Tasks), Test: TestResponseFrom(rep)}, nil
	}
	res, ok, err := s.eng.UpdateWCET(idx, wcet)
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	resp := AdmissionResponse{Admitted: ok || force, Test: TestResponseFrom(s.engReport(res))}
	switch {
	case ok:
		s.in.Tasks[idx].WCET = wcet
	case force:
		if _, err := s.resolveLocked(ctx, withWCET(s.in.Tasks, idx, wcet), true); err != nil {
			return AdmissionResponse{}, err
		}
	default:
		resp.RolledBack = true
	}
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// without is a fresh copy of ts minus task idx: the candidate for a
// removal the engine does not commit.
func without(ts partfeas.TaskSet, idx int) partfeas.TaskSet {
	return append(ts[:idx].Clone(), ts[idx+1:]...)
}

// withWCET is a copy of ts with task idx's WCET replaced.
func withWCET(ts partfeas.TaskSet, idx int, wcet int64) partfeas.TaskSet {
	c := ts.Clone()
	c[idx].WCET = wcet
	return c
}

// errNoEngine is the repartition answer for sessions whose resident set
// is infeasible (engine disarmed): there is no feasible target to drift
// from.
var errNoEngine = &httpError{code: http.StatusConflict, msg: "session has no armed engine (resident set infeasible); restore feasibility first"}

// repartition measures drift between the session's live placement and
// the paper's sorted first-fit over the same task multiset, optionally
// applying up to maxMoves migrations. Sorted sessions report zero drift
// by construction; arrival sessions accumulate it and drain it here.
func (s *session) repartition(ctx context.Context, maxMoves int, apply bool) (RepartitionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return RepartitionResponse{}, err
	}
	if s.constrained {
		return RepartitionResponse{}, errConstrainedRepartition
	}
	if s.eng == nil {
		return RepartitionResponse{}, errNoEngine
	}
	if err := ctxGuard(ctx); err != nil {
		return RepartitionResponse{}, err
	}
	if apply {
		// Logged before planning: re-planning over the identical engine
		// state is deterministic, so replay re-derives the same moves.
		if err := s.logOp(&oplog.Op{Type: oplog.TypeRepartition, Session: s.id, Target: maxMoves}); err != nil {
			return RepartitionResponse{}, err
		}
	}
	ctx = s.dur.applyCtx(ctx)
	pl, err := s.eng.PlanRepartition()
	if err != nil {
		return RepartitionResponse{}, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	resp := RepartitionResponse{
		Placement:      s.placement.Name(),
		TargetFeasible: pl.TargetFeasible,
		MovesTotal:     len(pl.Moves),
		DriftFraction:  pl.DriftFraction(s.eng.Len()),
		MaxLoadDelta:   pl.MaxLoadDelta,
		Moves:          make([]MoveJSON, len(pl.Moves)),
	}
	for i, mv := range pl.Moves {
		resp.Moves[i] = MoveJSON{Task: mv.Task, From: mv.From, To: mv.To}
	}
	if apply && pl.TargetFeasible && len(pl.Moves) > 0 {
		applied, err := s.eng.ApplyRepartition(pl, maxMoves)
		if err != nil {
			// A stale plan is impossible under s.mu; surface anything else.
			return RepartitionResponse{}, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
		}
		resp.Applied = applied
		resp.Partial = applied < len(pl.Moves)
	}
	rep, err := s.currentReport(ctx)
	if err != nil {
		return RepartitionResponse{}, err
	}
	resp.Test = TestResponseFrom(rep)
	return resp, nil
}
