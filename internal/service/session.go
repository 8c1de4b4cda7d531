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
// Every op has one body, served by the engine, which keeps live
// per-machine load state, so an admit/remove/update costs a suffix
// replay (typically O(log m)) instead of a full re-solve. The session
// always calls the engine's deadline-agnostic entry points
// (AdmitConstrained, AdmitBatchConstrained): implicit tasks are the D = P
// case, so implicit and constrained-deadline sessions share every op
// path, and the engine is the one copy of each task's deadline.
//
// A session's resident set may turn infeasible, under either deadline
// model: a force commit, or a removal sorted first-fit refuses, still
// commits. A first_fit_sorted engine holds such a set in the paper's
// failure state: the placement-order prefix before the first task no
// machine admits stays placed, and the rest is unplaced. So a
// first_fit_sorted session is armed exactly while its engine's state is
// feasible. A local-policy engine cannot hold a failure state. A
// local-policy session whose own engine refuses a forced commit, or that
// opens or restores infeasible, is disarmed: it holds a first_fit_sorted
// engine over the same tasks and deadlines, whose answers are the
// paper's batch test (dbf.FirstFit for constrained deadlines), and
// rebuilds its own policy engine after the next committed op whose
// sorted result is feasible (armEngine). That op answers the rebuilt
// engine's state, the one the session keeps.
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
	eng       *online.Engine // first_fit_sorted while a local-policy session is disarmed
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
	// through the engine's tiered DBF pipeline; they require EDF and
	// refuse repartition.
	constrained bool

	// memo caches the committed loads' text for the responses that carry
	// them (see loadMemo): a cache, not state, so no record carries it.
	memo loadMemo
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
// A session may open infeasible: a first_fit_sorted engine comes back
// holding the failure state, and a local-policy session starts disarmed
// on one. A constrained set whose exact analysis fails (horizon or
// demand overflow) fails creation rather than being downgraded to a
// verdict. b is checked once, after the engine is built and before the
// create is logged.
func (st *sessionStore) create(b budget, in partfeas.Instance, dls []int64, alpha float64, placement online.Policy, id string) (*session, error) {
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
	var err error
	s.eng, err = online.NewEngine(s.in.Tasks, s.in.Platform, s.engineOptions(dls))
	if s.eng == nil && errors.Is(err, online.ErrInfeasible) {
		err = s.disarm(dls) // opens disarmed
	}
	if s.eng == nil {
		return nil, badRequest("%v", err)
	}
	if err := b.guard(); err != nil {
		return nil, err
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
// Callers build the record only when logging reports it is kept.
func (s *session) logOp(op *oplog.Op) error {
	if err := s.dur.logOp(op); err != nil {
		return err
	}
	if s.migrating {
		s.tail = append(s.tail, op)
	}
	return nil
}

// logging reports whether logOp keeps a record: there is a WAL or an
// outbound migration is capturing, and this is not a staged inbound
// replay (whose MigrateIn record carries the state). A server without a
// data directory so builds no record per op.
func (s *session) logging() bool {
	return !s.noLog && (s.dur != nil || s.migrating)
}

// engineOptions are the session's engine options; dls is nil for an
// implicit-deadline engine. The scheduler was validated at the boundary,
// and constrained engines ignore Admission.
func (s *session) engineOptions(dls []int64) online.Options {
	adm, _ := s.in.Scheduler.Admission()
	return online.Options{
		Policy: s.placement, Alpha: s.alpha, Admission: adm,
		Deadlines: dls,
	}
}

// armed reports whether the session's engine runs the session's own
// policy over a feasible set. Only an armed session repartitions and
// snapshots its engine placement.
func (s *session) armed() bool {
	return s.eng.Feasible() && s.eng.PlacementPolicy().Ordered() == s.placement.Ordered()
}

// holds reports whether the engine can commit a mutation it refuses: a
// first_fit_sorted engine.
func (s *session) holds() bool {
	return s.eng.PlacementPolicy().Ordered()
}

// deadlines lists the resident set's deadlines for an engine rebuild,
// nil in an implicit session: the engine's, then dl for a task the engine
// does not hold (an admission its local policy refused). Caller holds s.mu.
func (s *session) deadlines(dl int64) []int64 {
	if !s.constrained {
		return nil
	}
	dls := make([]int64, len(s.in.Tasks))
	for i := range dls {
		dls[i] = dl
		if i < s.eng.Len() {
			dls[i] = s.eng.Deadline(i)
		}
	}
	return dls
}

// disarm puts the session on a first_fit_sorted engine over its resident
// set with deadlines dls (nil: implicit), which holds the fresh solve's
// failure state when the set is infeasible. On error (a malformed set,
// or an exact analysis that fails) the engine is unchanged.
func (s *session) disarm(dls []int64) error {
	opts := s.engineOptions(dls)
	opts.Policy = online.FirstFitSorted()
	eng, err := online.NewEngine(s.in.Tasks, s.in.Platform, opts)
	if eng == nil {
		return err
	}
	s.eng = eng
	return nil
}

// armEngine re-arms a disarmed local-policy session whose sorted state
// is feasible by rebuilding its own policy engine, and keeps the sorted
// engine when the policy cannot place the set. first_fit_sorted
// sessions arm by feasibility alone. Caller holds s.mu.
func (s *session) armEngine() {
	if s.armed() || !s.eng.Feasible() {
		return
	}
	if eng, err := online.NewEngine(s.in.Tasks, s.in.Platform, s.engineOptions(s.deadlines(0))); err == nil {
		s.eng = eng
	}
}

// budget is a request's one deadline: the request's context, whose Err
// reports a client that went away, and the instant its time budget runs
// out (zero: none). Every route builds one (Server.budget). A session op
// checks it once, before its WAL append — the ack point — and never
// after, so an op that passed the check commits and answers.
// It becomes a context only for a callee that watches one (a solve, a
// peer call). The zero budget, which WAL recovery and migration tail
// replay use, never expires.
type budget struct {
	ctx context.Context
	end time.Time
}

// guard is the deadline check: the error the library solve answers for
// a context cancelled or timed out at the same instant, so clients
// cannot tell which path answered.
func (b budget) guard() error {
	var cause error
	switch {
	case b.ctx != nil && b.ctx.Err() != nil:
		cause = b.ctx.Err()
	case !b.end.IsZero() && !time.Now().Before(b.end):
		cause = context.DeadlineExceeded
	default:
		return nil
	}
	return pipeline.New(pipeline.StageAnalyze, "Test", cause)
}

// context is a request's b as a context for a callee that watches one:
// the request context with b's deadline. It is the package's one
// derived context (TestOneRequestDeadline).
func (b budget) context() (context.Context, context.CancelFunc) {
	if b.end.IsZero() {
		return context.WithCancel(b.ctx)
	}
	return context.WithDeadline(b.ctx, b.end)
}

// loadsText formats loads as a JSON array under s.mu into a pooled
// buffer, which WriteJSON returns to the pool once it has written the
// response, so the text outlives the engine's next op without a copy of
// the loads. It goes through the load memo, which it updates only when
// committed says the loads are the session's committed state. A
// non-finite load gets no text but a copy of the loads instead, so the
// response takes WriteJSON's encoding/json fallback as it always did.
func (s *session) loadsText(loads []float64, committed bool) (*[]byte, []float64) {
	bp := bodyPool.Get().(*[]byte)
	b, ok := s.memo.appendLoads((*bp)[:0], loads, committed)
	*bp = b
	if !ok {
		putBody(bp)
		return nil, slices.Clone(loads)
	}
	return bp, nil
}

// summary is a mutation's test block over an engine answer; committed
// says whether the answer describes the session's committed state (see
// loadsText).
func (s *session) summary(feasible bool, failed int, loads []float64, committed bool) TestSummary {
	sum := TestSummary{
		Accepted:   feasible,
		Scheduler:  s.in.Scheduler.String(),
		Alpha:      s.eng.Alpha(),
		FailedTask: failed,
	}
	sum.loads, sum.Loads = s.loadsText(loads, committed)
	return sum
}

// current is the test response for the resident set at the session
// alpha, answered from the engine, whose state is the fresh solve's,
// feasible or not. The assignment is copied; the loads go through the
// memo. Caller holds s.mu.
func (s *session) current() TestResponse {
	res := s.eng.Result()
	tr := TestResponse{
		Accepted:   res.Feasible,
		Scheduler:  s.in.Scheduler.String(),
		Alpha:      res.Alpha,
		Assignment: slices.Clone(res.Assignment),
		FailedTask: res.FailedTask,
	}
	tr.loads, tr.Loads = s.loadsText(res.Loads, true)
	return tr
}

// state snapshots the session and re-tests it at its alpha.
func (s *session) state(b budget) (SessionResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionResponse{}, errSessionClosed
	}
	if err := b.guard(); err != nil {
		return SessionResponse{}, err
	}
	resp := SessionResponse{
		ID:        s.id,
		Scheduler: s.in.Scheduler.String(),
		Alpha:     s.alpha,
		Placement: s.placement.Name(),
		Tasks:     make([]TaskJSON, len(s.in.Tasks)),
		Machines:  make([]MachineJSON, len(s.in.Platform)),
		Test:      s.current(),
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
// valid at the session alpha): the batch sorted test, which watches the
// budget as a context, or for constrained sets the exact constrained
// first-fit.
func (s *session) test(b budget, alpha float64) (TestResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return TestResponse{}, errSessionClosed
	}
	var rep partfeas.Report
	var err error
	switch {
	case alpha == 0 || alpha == s.alpha:
		if err := b.guard(); err != nil {
			return TestResponse{}, err
		}
		return s.current(), nil
	case s.constrained:
		if err = b.guard(); err == nil {
			rep, err = s.freshConstrainedReport(alpha)
		}
	default:
		ctx, cancel := b.context()
		defer cancel()
		rep, err = partfeas.TestCtx(ctx, s.in, alpha)
	}
	if err != nil {
		return TestResponse{}, err
	}
	return TestResponseFrom(rep), nil
}

// addTask tentatively admits one more task: committed only on acceptance
// (or force). A force-committed rejection leaves the session disarmed
// until its set is feasible again. The op is acknowledged (logged)
// before any state changes, so a durable admit is all-or-nothing.
//
// Single-task ops call the engine's Summary entry points (AdmitSummary,
// RemoveSummary, UpdateWCETSummary): a response reads the verdict, the
// failed task, the m loads and the op task's machine, so a refusal
// builds no n-entry witness assignment, and a sorted engine refuses an
// admission no machine takes in O(m log n) without inserting it.
func (s *session) addTask(b budget, t partfeas.Task, dl int64, force bool) (AdmissionResponse, error) {
	defer s.dur.rlock()()
	if err := s.checkDeadlineArg(dl, t.Period); err != nil {
		return AdmissionResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if err := b.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if s.logging() {
		if err := s.logOp(&oplog.Op{
			Type: oplog.TypeAdmit, Session: s.id, Force: force,
			Tasks: []oplog.Task{{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: dl}},
		}); err != nil {
			return AdmissionResponse{}, err
		}
	}
	start := time.Now()
	forced := force && s.holds()
	ct := constrainedTask(t, dl)
	sum, err := s.eng.AdmitSummary(ct, forced)
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	s.observeAdmission(start)
	admitted := sum.Feasible || force
	if admitted {
		s.in.Tasks = append(s.in.Tasks, t)
		if sum, err = s.commit(sum, len(s.in.Tasks)-1, ct.Deadline); err != nil {
			s.in.Tasks = s.in.Tasks[:len(s.in.Tasks)-1]
			return AdmissionResponse{}, err
		}
	}
	resp := s.admission(sum, sum.Feasible || forced)
	resp.Admitted, resp.RolledBack = admitted, !admitted
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// commit finishes a committed single op whose engine answered sum and
// returns the op's answer. A feasible result may re-arm the session;
// the answer then reads the loads and the machine of task op (-1: none)
// from the re-armed engine, whose state the session keeps. A refusal its
// local-policy engine could not hold disarms it, with no re-arm attempt
// even when the sorted set is feasible; dl is an admitted task's
// deadline, which that engine does not hold. When the sorted rebuild
// fails (a constrained set whose exact analysis errors), the engine is
// unchanged and the answer is a 400, on which the caller undoes its
// change to s.in.Tasks: the op is a deterministic no-op, live and in
// replay. Caller holds s.mu.
func (s *session) commit(sum online.Summary, op int, dl int64) (online.Summary, error) {
	switch {
	case sum.Feasible:
		eng := s.eng
		s.armEngine()
		if s.eng != eng {
			res := s.eng.Result()
			sum.Loads, sum.Machine = res.Loads, machineOf(res, op)
		}
	case !s.holds():
		if err := s.disarm(s.deadlines(dl)); err != nil {
			return sum, badRequest("%v", err)
		}
	}
	return sum, nil
}

// admission answers an admit or a WCET update from the engine's summary:
// its test block plus the op task's machine. committed says whether the
// engine holds the state sum describes (an accepted or forced op), not a
// refusal's witness.
func (s *session) admission(sum online.Summary, committed bool) AdmissionResponse {
	m := sum.Machine
	return AdmissionResponse{Machine: &m, Test: s.summary(sum.Feasible, sum.FailedTask, sum.Loads, committed)}
}

// machineOf is task i's entry in res's assignment: its machine index, or
// -1 when res leaves it unplaced or does not cover it.
func machineOf(res partition.Result, i int) int {
	if as := res.Assignment; i >= 0 && i < len(as) {
		return as[i]
	}
	return -1
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
	if s.mx == nil {
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
// deadlines. It logs the op, then runs the batch through the engine —
// one merged suffix replay — and records its latency. A disarmed session
// runs a best-effort batch one task at a time instead (stepwise), as
// single admits, so it re-arms at the first task that makes its sorted
// set feasible; the armed engine then takes the rest as one batch. A
// batch that admitted anything answers the session's state after it;
// one that admitted nothing answers its last refusal's witness.
func (s *session) addTaskBatch(b budget, ts []partfeas.Task, dls []int64, mode online.BatchMode) (BatchAdmissionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return BatchAdmissionResponse{}, err
	}
	for i := range ts {
		if err := s.checkDeadlineArg(deadlineAt(dls, i), ts[i].Period); err != nil {
			return BatchAdmissionResponse{}, err
		}
	}
	if err := b.guard(); err != nil {
		return BatchAdmissionResponse{}, err
	}
	if len(ts) == 0 {
		return s.batchResponse(mode, []bool{}, s.eng.Result(), true), nil
	}
	cs := make(dbf.Set, len(ts))
	for i, t := range ts {
		cs[i] = constrainedTask(t, deadlineAt(dls, i))
	}
	if s.logging() {
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
	}
	start := time.Now()
	stepwise := !s.armed() && mode == online.BestEffort
	admitted := make([]bool, 0, len(ts))
	var res partition.Result
	for i := 0; i < len(ts); {
		n := len(ts) - i
		if stepwise && !s.armed() {
			n = 1
		}
		r, part, err := s.engineBatch(ts[i:i+n], cs[i:i+n], mode)
		if err != nil {
			return BatchAdmissionResponse{}, err
		}
		admitted = append(admitted, part...)
		if slices.Contains(part, true) {
			s.armEngine()
		}
		res, i = r, i+n
	}
	committed := slices.Contains(admitted, true)
	if committed {
		res = s.eng.Result()
	}
	if s.mx != nil {
		d := time.Since(start)
		s.mx.AdmissionObserved(PathBatch, d)
		s.observeTier(d)
	}
	return s.batchResponse(mode, admitted, res, committed), nil
}

// engineBatch runs ts, in engine form cs, through the engine as one
// batch and appends the admitted tasks. Caller holds s.mu.
func (s *session) engineBatch(ts []partfeas.Task, cs dbf.Set, mode online.BatchMode) (partition.Result, []bool, error) {
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

// batchResponse answers a batch over the session's committed set. The
// admitted tasks were appended in input order, so they are the last
// NAdmitted resident tasks, and each one's machine is its entry at that
// index in res, the engine's state whenever anything was admitted.
// committed says whether res is the engine's state (see loadsText).
func (s *session) batchResponse(mode online.BatchMode, admitted []bool, res partition.Result, committed bool) BatchAdmissionResponse {
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	machines := make([]int, len(admitted))
	next := len(s.in.Tasks) - n
	for i, ok := range admitted {
		machines[i] = -1
		if ok {
			machines[i] = machineOf(res, next)
			next++
		}
	}
	return BatchAdmissionResponse{
		Mode:      mode.String(),
		Admitted:  admitted,
		Machines:  machines,
		NAdmitted: n,
		NTasks:    len(s.in.Tasks),
		Test:      s.summary(res.Feasible, res.FailedTask, res.Loads, committed),
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

// removeTask releases a task and reports the re-test of the shrunken
// set. Sorted first-fit is not monotone under removals, so the shrunken
// set can (rarely) re-solve infeasible; a forced remove (every live
// DELETE) still commits, and the sorted engine holds the failure state.
// An unforced one, which only an older log replays (applySessionOp),
// keeps the task resident and answers with the rejection witness.
func (s *session) removeTask(b budget, idx int, force bool) (AdmissionResponse, error) {
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
	if err := b.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if s.logging() {
		if err := s.logOp(&oplog.Op{Type: oplog.TypeRemove, Session: s.id, Target: idx, Force: force}); err != nil {
			return AdmissionResponse{}, err
		}
	}
	forced := force && s.holds()
	sum, err := s.eng.RemoveSummary(idx, forced)
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	ok := sum.Feasible
	rolledBack := !(ok || forced)
	if !rolledBack {
		// The engine holds its own copy of the tasks, so the session's
		// slice is deleted from in place.
		s.in.Tasks = slices.Delete(s.in.Tasks, idx, idx+1)
		if sum, err = s.commit(sum, -1, 0); err != nil {
			return AdmissionResponse{}, err
		}
	}
	resp := AdmissionResponse{Admitted: ok, RolledBack: rolledBack, Test: s.summary(ok, sum.FailedTask, sum.Loads, ok || forced)}
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// updateWCET changes one task's WCET through the engine's incremental
// path, rolling back when the re-test rejects and force is unset. The
// new WCET is vetted before the op is logged, so a malformed one leaves
// no record.
func (s *session) updateWCET(b budget, idx int, wcet int64, force bool) (AdmissionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if idx < 0 || idx >= len(s.in.Tasks) {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("task index %d out of range [0, %d)", idx, len(s.in.Tasks))}
	}
	if wcet <= 0 {
		return AdmissionResponse{}, badRequest("task %d: wcet %d must be positive", idx, wcet)
	}
	if s.constrained && wcet > s.eng.Deadline(idx) {
		return AdmissionResponse{}, badRequest("task %d: wcet %d exceeds its deadline %d", idx, wcet, s.eng.Deadline(idx))
	}
	if err := b.guard(); err != nil {
		return AdmissionResponse{}, err
	}
	if s.logging() {
		if err := s.logOp(&oplog.Op{Type: oplog.TypeUpdateWCET, Session: s.id, Target: idx, WCET: wcet, Force: force}); err != nil {
			return AdmissionResponse{}, err
		}
	}
	forced := force && s.holds()
	sum, err := s.eng.UpdateWCETSummary(idx, wcet, forced)
	if err != nil {
		return AdmissionResponse{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	admitted := sum.Feasible || force
	if admitted {
		old := s.in.Tasks[idx].WCET
		s.in.Tasks[idx].WCET = wcet
		if sum, err = s.commit(sum, idx, 0); err != nil {
			s.in.Tasks[idx].WCET = old
			return AdmissionResponse{}, err
		}
	}
	resp := s.admission(sum, sum.Feasible || forced)
	resp.Admitted, resp.RolledBack = admitted, !admitted
	resp.NTasks = len(s.in.Tasks)
	return resp, nil
}

// errNoEngine is the repartition answer for disarmed sessions: the
// session's own policy engine holds no placement to drift from.
var errNoEngine = &httpError{code: http.StatusConflict, msg: "session has no armed engine (resident set infeasible); restore feasibility first"}

// repartition measures drift between the session's live placement and
// the paper's sorted first-fit over the same task multiset, optionally
// applying up to maxMoves migrations. Sorted sessions report zero drift
// by construction; arrival sessions accumulate it and drain it here.
// Like every op it checks b once, before the WAL append: a plan or an
// apply that outlives the deadline still answers with its result.
func (s *session) repartition(b budget, maxMoves int, apply bool) (RepartitionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return RepartitionResponse{}, err
	}
	if s.constrained {
		return RepartitionResponse{}, errConstrainedRepartition
	}
	if !s.armed() {
		return RepartitionResponse{}, errNoEngine
	}
	if err := b.guard(); err != nil {
		return RepartitionResponse{}, err
	}
	if apply && s.logging() {
		// Logged before planning: re-planning over the identical engine
		// state is deterministic, so replay re-derives the same moves.
		if err := s.logOp(&oplog.Op{Type: oplog.TypeRepartition, Session: s.id, Target: maxMoves}); err != nil {
			return RepartitionResponse{}, err
		}
	}
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
	// RepartitionResponse encodes through encoding/json, so its test
	// block carries the loads, not a session's text.
	res := s.eng.Result()
	resp.Test = TestResponseFrom(partfeas.Report{Accepted: res.Feasible, Scheduler: s.in.Scheduler, Alpha: res.Alpha, Partition: res})
	return resp, nil
}
