package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"partfeas"
	"partfeas/internal/online"
)

// StatusClientClosedRequest is recorded (nginx's 499 convention) when a
// client abandons its request mid-flight; nothing readable is written,
// the code exists for the metrics.
const StatusClientClosedRequest = 499

// httpError carries a status code with a client-facing message. Session
// and handler code returns these for every anticipated failure; anything
// else is a 500.
type httpError struct {
	code int
	msg  string
	// retryAfter, when non-zero, is rendered as a Retry-After header —
	// used by the degraded read-only mode's 503s.
	retryAfter int
	// owner, when non-empty, is rendered as an X-Session-Owner header —
	// the 421 redirect a migrated session's tombstone answers with.
	owner string
	// migration marks a transient mid-handoff 503 (X-Migration header) so
	// the coordinator can retry it internally; the WAL-degraded 503 does
	// not set it and passes through to the client unchanged.
	migration bool
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// checkAlpha rejects non-positive and non-finite augmentations at the
// HTTP boundary, so a client mistake reads as a 400, not a 500 from deep
// inside the solver.
func checkAlpha(a float64) error {
	if !(a > 0) || math.IsInf(a, 0) {
		return badRequest("alpha %v must be a positive finite number", a)
	}
	return nil
}

// routes builds the server's mux. Every /v1 endpoint goes through wrap,
// which owns metrics, panic isolation and error rendering.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/test", s.wrap("/v1/test", s.handleTest))
	mux.HandleFunc("POST /v1/minalpha", s.wrap("/v1/minalpha", s.handleMinAlpha))
	mux.HandleFunc("POST /v1/analyze", s.wrap("/v1/analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/sessions", s.wrap("/v1/sessions", s.handleSessionCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.wrap("/v1/sessions/{id}", s.handleSessionGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap("/v1/sessions/{id}", s.handleSessionDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/test", s.wrap("/v1/sessions/{id}/test", s.handleSessionTest))
	mux.HandleFunc("POST /v1/sessions/{id}/tasks", s.wrap("/v1/sessions/{id}/tasks", s.handleSessionAddTask))
	mux.HandleFunc("POST /v1/sessions/{id}/admit-batch", s.wrap("/v1/sessions/{id}/admit-batch", s.handleSessionAdmitBatch))
	mux.HandleFunc("DELETE /v1/sessions/{id}/tasks/{index}", s.wrap("/v1/sessions/{id}/tasks/{index}", s.handleSessionRemoveTask))
	mux.HandleFunc("POST /v1/sessions/{id}/wcet", s.wrap("/v1/sessions/{id}/wcet", s.handleSessionUpdateWCET))
	mux.HandleFunc("POST /v1/sessions/{id}/repartition", s.wrap("/v1/sessions/{id}/repartition", s.handleSessionRepartition))
	mux.HandleFunc("POST /v1/sessions/{id}/migrate", s.wrap("/v1/sessions/{id}/migrate", s.handleMigrate))
	mux.HandleFunc("GET /internal/v1/sessions", s.wrap("/internal/v1/sessions", s.handleSessionIndex))
	mux.HandleFunc("POST /internal/v1/migration/prepare", s.wrap("/internal/v1/migration/prepare", s.handleMigratePrepare))
	mux.HandleFunc("POST /internal/v1/migration/commit", s.wrap("/internal/v1/migration/commit", s.handleMigrateCommit))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// wrap is the shared request spine: in-flight gauge, latency recording,
// panic isolation (one poisoned request answers 500, the server lives),
// uniform error rendering. Handlers return (body, status, error); status
// 0 means 200, a nil body with a status writes an empty response.
func (s *Server) wrap(endpoint string, fn func(w http.ResponseWriter, r *http.Request) (any, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.RequestStarted()
		start := time.Now()
		code := http.StatusOK
		defer func() {
			if v := recover(); v != nil {
				code = http.StatusInternalServerError
				s.logf("service: panic serving %s: %v\n%s", endpoint, v, debug.Stack())
				WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf("internal error: %v", v)})
			}
			s.metrics.RequestDone(endpoint, code, time.Since(start))
		}()
		resp, st, err := fn(w, r)
		if err != nil {
			code = s.statusFor(r, err)
			var he *httpError
			if errors.As(err, &he) {
				if he.retryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
				}
				if he.owner != "" {
					w.Header().Set("X-Session-Owner", he.owner)
				}
				if he.migration {
					w.Header().Set("X-Migration", "in-progress")
				}
			}
			WriteJSON(w, code, ErrorResponse{Error: err.Error()})
			return
		}
		if st != 0 {
			code = st
		}
		if resp == nil {
			w.WriteHeader(code)
			return
		}
		WriteJSON(w, code, resp)
	}
}

// statusFor maps an error to its response code: explicit httpErrors keep
// theirs, cancellations split into client-gone (499) vs request deadline
// (504), everything else is a 500.
func (s *Server) statusFor(r *http.Request, err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	if partfeas.IsCanceled(err) {
		if r.Context().Err() != nil {
			s.metrics.RequestCanceled()
			return StatusClientClosedRequest
		}
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// Decode reads a strict JSON request body: exactly one value (trailing
// whitespace only), unknown fields rejected, at most limit bytes — 1 MiB
// on the public API and the coordinator's admin API, 64 MiB for
// migration payloads (a full session snapshot plus WAL tail). Its error
// is a 400 whose message starts "decoding request: ".
func Decode[T any](w http.ResponseWriter, r *http.Request, dst *T, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("decoding request: trailing data after the JSON value")
	}
	return nil
}

// timeout is a request's time budget: its own timeout_ms when given,
// else the server default, both clamped to the server maximum; 0 means
// none.
func (s *Server) timeout(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return max(d, 0)
}

// budget is the request's one deadline: its context plus the instant
// its timeout runs out.
func (s *Server) budget(r *http.Request, timeoutMS int64) budget {
	b := budget{ctx: r.Context()}
	if d := s.timeout(timeoutMS); d > 0 {
		b.end = time.Now().Add(d)
	}
	return b
}

func (s *Server) handleTest(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req TestRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	in, err := req.Instance()
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	if req.Alpha == 0 {
		req.Alpha = 1
	}
	if err := checkAlpha(req.Alpha); err != nil {
		return nil, 0, err
	}
	ctx, cancel := s.budget(r, req.TimeoutMS).context()
	defer cancel()
	rep, err := partfeas.TestCtx(ctx, in, req.Alpha)
	if err != nil {
		return nil, 0, err
	}
	return TestResponseFrom(rep), 0, nil
}

func (s *Server) handleMinAlpha(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req MinAlphaRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	in, err := req.Instance()
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	if req.Lo == 0 {
		req.Lo = 0.01
	}
	if req.Hi == 0 {
		req.Hi = 8
	}
	if req.Tol == 0 {
		req.Tol = 1e-6
	}
	if !(req.Lo > 0) || req.Hi < req.Lo || !(req.Tol > 0) {
		return nil, 0, badRequest("bisection bracket [lo=%v, hi=%v] tol=%v invalid", req.Lo, req.Hi, req.Tol)
	}
	ctx, cancel := s.budget(r, req.TimeoutMS).context()
	defer cancel()
	alpha, ok, err := partfeas.MinAlphaCtx(ctx, in, req.Lo, req.Hi, req.Tol)
	if err != nil {
		return nil, 0, err
	}
	return MinAlphaResponse{Alpha: alpha, OK: ok}, 0, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req AnalyzeRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	in, err := req.Instance()
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	budget := req.ExactBudget
	if budget <= 0 {
		budget = s.cfg.AnalyzeBudget
	}
	ctx, cancel := s.budget(r, req.TimeoutMS).context()
	defer cancel()
	a, err := partfeas.AnalyzeCtx(ctx, in.Tasks, in.Platform, partfeas.AnalyzeOptions{ExactBudget: budget})
	if err != nil {
		return nil, 0, err
	}
	return AnalyzeResponseFrom(a), 0, nil
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req CreateSessionRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	constrained := false
	switch req.DeadlineModel {
	case "", "implicit":
	case "constrained":
		constrained = true
	default:
		return nil, 0, badRequest("unknown deadline_model %q (want \"implicit\" or \"constrained\")", req.DeadlineModel)
	}
	in, err := req.instance(constrained)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	if req.Alpha == 0 {
		req.Alpha = 1
	}
	if err := checkAlpha(req.Alpha); err != nil {
		return nil, 0, err
	}
	placement, err := online.ParsePolicy(req.Placement)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	// X-Session-ID is the coordinator's pre-assigned id: the
	// consistent-hash ring routes by id, so the id must exist before the
	// session does. Direct clients normally omit it and get "s-<n>".
	id := r.Header.Get("X-Session-ID")
	var dls []int64
	if constrained {
		dls = req.Deadlines()
	}
	sess, err := s.sessions.create(s.budget(r, req.TimeoutMS), in, dls, req.Alpha, placement, id)
	if err != nil {
		return nil, 0, err
	}
	state, err := sess.state(budget{}) // committed: answered past the deadline
	if err != nil {
		return nil, 0, err
	}
	s.markDurability(w, &state.Durability)
	return state, http.StatusCreated, nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) (any, int, error) {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	state, err := sess.state(s.budget(r, 0))
	if err != nil {
		return nil, 0, err
	}
	return state, 0, nil
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) (any, int, error) {
	if err := s.sessions.remove(r.PathValue("id")); err != nil {
		return nil, 0, err
	}
	var discard string
	s.markDurability(w, &discard)
	return nil, http.StatusNoContent, nil
}

func (s *Server) handleSessionTest(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req SessionTestRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	if req.Alpha != 0 { // 0 keeps the session augmentation
		if err := checkAlpha(req.Alpha); err != nil {
			return nil, 0, err
		}
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.test(s.budget(r, req.TimeoutMS), req.Alpha)
	if err != nil {
		return nil, 0, err
	}
	return resp, 0, nil
}

func (s *Server) handleSessionAddTask(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req AddTaskRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	t := partfeas.Task{Name: req.Task.Name, WCET: req.Task.WCET, Period: req.Task.Period}
	if err := t.Validate(); err != nil {
		return nil, 0, badRequest("%v", err)
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.addTask(s.budget(r, req.TimeoutMS), t, req.Task.Deadline, req.Force)
	if err != nil {
		return nil, 0, err
	}
	s.markDurability(w, &resp.Durability)
	return resp, 0, nil
}

func (s *Server) handleSessionAdmitBatch(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req AdmitBatchRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	var mode online.BatchMode
	switch req.Mode {
	case "", online.BestEffort.String():
		mode = online.BestEffort
	case online.AllOrNothing.String():
		mode = online.AllOrNothing
	default:
		return nil, 0, badRequest("unknown mode %q (want %q or %q)", req.Mode, online.BestEffort, online.AllOrNothing)
	}
	ts := make([]partfeas.Task, len(req.Tasks))
	dls := make([]int64, len(req.Tasks))
	for i, tj := range req.Tasks {
		ts[i] = partfeas.Task{Name: tj.Name, WCET: tj.WCET, Period: tj.Period}
		dls[i] = tj.Deadline
		if err := ts[i].Validate(); err != nil {
			return nil, 0, badRequest("batch task %d: %v", i, err)
		}
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.addTaskBatch(s.budget(r, req.TimeoutMS), ts, dls, mode)
	if err != nil {
		return nil, 0, err
	}
	s.markDurability(w, &resp.Durability)
	return resp, 0, nil
}

func (s *Server) handleSessionRemoveTask(w http.ResponseWriter, r *http.Request) (any, int, error) {
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		return nil, 0, badRequest("task index %q is not an integer", r.PathValue("index"))
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.removeTask(s.budget(r, 0), idx, true)
	if err != nil {
		return nil, 0, err
	}
	s.markDurability(w, &resp.Durability)
	return resp, 0, nil
}

func (s *Server) handleSessionUpdateWCET(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req UpdateWCETRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.updateWCET(s.budget(r, req.TimeoutMS), req.Index, req.WCET, req.Force)
	if err != nil {
		return nil, 0, err
	}
	s.markDurability(w, &resp.Durability)
	return resp, 0, nil
}

func (s *Server) handleSessionRepartition(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req RepartitionRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	if req.MaxMoves < 0 {
		return nil, 0, badRequest("max_moves %d must be non-negative", req.MaxMoves)
	}
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sess.repartition(s.budget(r, req.TimeoutMS), req.MaxMoves, req.Apply)
	if err != nil {
		return nil, 0, err
	}
	if req.Apply {
		s.markDurability(w, &resp.Durability)
	}
	return resp, 0, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// markDurability stamps a mutation response with the durability level its
// acknowledgement carries: "wal" means the op was appended to the
// write-ahead log before the response was produced, "none" means the
// server runs without -data-dir and the op lives only in memory.
func (s *Server) markDurability(w http.ResponseWriter, field *string) {
	m := s.dur.mode()
	*field = m
	w.Header().Set("X-Durability", m)
}
