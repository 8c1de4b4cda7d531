package service

// Epoch-fenced live session migration: the mechanism that lets the
// cluster coordinator move a session between replicas without losing an
// acknowledged op and without ever letting two replicas acknowledge
// mutations for the same session.
//
// The protocol (source-driven, five phases):
//
//  1. snapshot — under s.mu the source marks the transfer active and
//     encodes the session at an op boundary (the same sessionSnap codec
//     snapshots and recovery use). Mutations keep flowing; each one is,
//     after its WAL ack, also captured into the session's tail.
//  2. prepare — the snapshot is staged on the destination, which
//     restores it through the real engine-restore path (a corrupt or
//     tampered snapshot is rejected here, before any cutover).
//  3. fence + cutover — under s.mu the source fences the session (no
//     further acks), collects the tail, and encodes the final state at
//     the new epoch. It then appends a TypeMigrateOut record carrying
//     that state *before* telling the destination to commit: a source
//     crash after this point recovers as a fenced tombstone with the
//     retained state and can re-drive the handoff; a failure before it
//     simply unfences, and the transfer never happened.
//  4. commit — the destination replays the tail through the same
//     mutation paths recovery uses, stamps the new epoch, appends a
//     TypeMigrateIn record with its final encoded state, and activates
//     the session. Its response carries that encoding; the source
//     byte-compares it against its own final state.
//  5. release — the source drops the retained state; the tombstone stays
//     and answers every later request with a 421 + X-Session-Owner
//     redirect.
//
// At-least-once with idempotence: any commit failure (lost staging, lost
// ack, destination crash) is retried by re-driving prepare(final state) +
// commit(empty tail). A destination that already activated the epoch
// answers "already" instead of double-applying; a destination that lost
// everything restores from the final state. Epochs only ever increase,
// so a stale owner can never re-acquire a session it ceded.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"partfeas/internal/faultinject"
	"partfeas/internal/oplog"
)

const (
	migratePreparePath = "/internal/v1/migration/prepare"
	migrateCommitPath  = "/internal/v1/migration/commit"
)

// stagedSession is an inbound migration between prepare and commit: the
// restored session (detached from metrics and WAL until activation) and
// the epoch it will assume.
type stagedSession struct {
	s     *session
	epoch uint64
}

// movedSession is an outbound tombstone: where the session went, at what
// epoch, and — until the destination confirms the commit — the retained
// final state that makes the handoff re-drivable.
type movedSession struct {
	target string
	epoch  uint64
	state  []byte
}

// MigrateRequest asks a replica to hand one of its sessions to target
// (a replica base URL).
type MigrateRequest struct {
	Target    string `json:"target"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// MigrateResponse reports a completed handoff.
type MigrateResponse struct {
	Migrated   bool    `json:"migrated"`
	ID         string  `json:"id"`
	Target     string  `json:"target"`
	Epoch      uint64  `json:"epoch"`
	TailOps    int     `json:"tail_ops"`
	Bytes      int     `json:"bytes"`
	Redriven   bool    `json:"redriven,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

type migratePrepare struct {
	ID       string `json:"id"`
	Epoch    uint64 `json:"epoch"`
	Snapshot []byte `json:"snapshot"`
}

type migratePrepareResponse struct {
	Staged bool `json:"staged,omitempty"`
	// Already means the destination holds the session active at this (or
	// a later) epoch: the handoff is complete and must not re-apply.
	Already bool `json:"already,omitempty"`
}

type migrateCommit struct {
	ID    string      `json:"id"`
	Epoch uint64      `json:"epoch"`
	Tail  []*oplog.Op `json:"tail,omitempty"`
}

type migrateCommitResponse struct {
	Already bool `json:"already,omitempty"`
	// State is the destination's final encoded session, which the source
	// byte-compares against its own.
	State []byte `json:"state,omitempty"`
}

// SessionInfo is one row of the internal session index.
type SessionInfo struct {
	ID     string `json:"id"`
	Epoch  uint64 `json:"epoch"`
	NTasks int    `json:"n_tasks"`
}

// MovedInfo is one outbound tombstone of the internal session index;
// Retained marks a handoff the destination has not confirmed yet.
type MovedInfo struct {
	ID       string `json:"id"`
	Target   string `json:"target"`
	Epoch    uint64 `json:"epoch"`
	Retained bool   `json:"retained,omitempty"`
}

// SessionIndex is the coordinator-facing inventory of a replica.
type SessionIndex struct {
	Sessions []SessionInfo `json:"sessions"`
	Moved    []MovedInfo   `json:"moved,omitempty"`
}

// errDiverged marks a commit whose destination state did not byte-match
// the source's: never expected (replay is deterministic), never masked
// by a re-drive.
var errDiverged = errors.New("destination state diverged from source")

// handleSessionIndex lists live sessions and tombstones — what the
// coordinator rebalances from.
func (s *Server) handleSessionIndex(_ http.ResponseWriter, _ *http.Request) (any, int, error) {
	st := s.sessions
	st.mu.Lock()
	sessions := make([]*session, 0, len(st.m))
	for _, sess := range st.m {
		sessions = append(sessions, sess)
	}
	moved := make([]MovedInfo, 0, len(st.moved))
	for id, mv := range st.moved {
		moved = append(moved, MovedInfo{ID: id, Target: mv.target, Epoch: mv.epoch, Retained: mv.state != nil})
	}
	st.mu.Unlock()
	idx := SessionIndex{Sessions: make([]SessionInfo, len(sessions)), Moved: moved}
	for i, sess := range sessions {
		sess.mu.Lock()
		idx.Sessions[i] = SessionInfo{ID: sess.id, Epoch: sess.epoch, NTasks: len(sess.in.Tasks)}
		sess.mu.Unlock()
	}
	sort.Slice(idx.Sessions, func(i, j int) bool { return idx.Sessions[i].ID < idx.Sessions[j].ID })
	sort.Slice(idx.Moved, func(i, j int) bool { return idx.Moved[i].ID < idx.Moved[j].ID })
	if len(idx.Moved) == 0 {
		idx.Moved = nil
	}
	return &idx, 0, nil
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req MigrateRequest
	if err := Decode(w, r, &req, 1<<20); err != nil {
		return nil, 0, err
	}
	if !strings.HasPrefix(req.Target, "http://") && !strings.HasPrefix(req.Target, "https://") {
		return nil, 0, badRequest("migration target %q must be a replica base URL", req.Target)
	}
	ctx, cancel := s.budget(r, req.TimeoutMS).context()
	defer cancel()
	resp, err := s.migrateTo(ctx, r.PathValue("id"), req.Target)
	return resp, 0, err
}

func (s *Server) handleMigratePrepare(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req migratePrepare
	if err := Decode(w, r, &req, 1<<26); err != nil {
		return nil, 0, err
	}
	return s.stagePrepare(&req)
}

func (s *Server) handleMigrateCommit(w http.ResponseWriter, r *http.Request) (any, int, error) {
	var req migrateCommit
	if err := Decode(w, r, &req, 1<<26); err != nil {
		return nil, 0, err
	}
	resp, err := s.commitMigration(&req)
	return resp, 0, err
}

// migrateTo hands session id to the replica at target. See the package
// comment for the protocol; every early exit leaves the session in one
// of exactly three states: unfenced and live here (the transfer never
// happened), fenced with retained state (re-drivable), or tombstoned
// with the destination active (complete).
func (s *Server) migrateTo(ctx context.Context, id, target string) (*MigrateResponse, error) {
	start := time.Now()
	st := s.sessions

	// A tombstone with retained state is a handoff an earlier attempt
	// fenced but could not confirm: re-drive it. Only the recorded target
	// may be re-driven — the MigrateOut record named it, and a second
	// destination at the same epoch would be split brain.
	st.mu.Lock()
	if mv := st.moved[id]; mv != nil {
		state, tgt, epoch := mv.state, mv.target, mv.epoch
		st.mu.Unlock()
		if state == nil {
			return nil, movedErr(id, tgt)
		}
		if target != tgt {
			return nil, &httpError{code: http.StatusConflict,
				msg: fmt.Sprintf("session %q has an unconfirmed handoff to %s; re-drive must target it", id, tgt)}
		}
		if err := s.driveHandoff(ctx, id, tgt, epoch, state); err != nil {
			s.metrics.MigrationFailed()
			return nil, &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("re-driving handoff of %q: %v", id, err)}
		}
		st.mu.Lock()
		if mv := st.moved[id]; mv != nil && mv.epoch == epoch {
			mv.state = nil
		}
		st.mu.Unlock()
		s.metrics.MigrationOut(time.Since(start))
		return &MigrateResponse{
			Migrated: true, ID: id, Target: tgt, Epoch: epoch, Redriven: true,
			Bytes: len(state), DurationMS: durationMS(start),
		}, nil
	}
	st.mu.Unlock()

	sess, err := st.get(id)
	if err != nil {
		return nil, err
	}

	// Phase 1 — snapshot at an op boundary; tail capture starts here.
	sess.mu.Lock()
	if gerr := sess.guard(); gerr != nil {
		sess.mu.Unlock()
		return nil, gerr
	}
	if sess.migrating {
		sess.mu.Unlock()
		return nil, &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session %q is already migrating", id)}
	}
	sess.migrating = true
	sess.tail = nil
	newEpoch := sess.epoch + 1
	snap, err := encodeSession(sess)
	sess.mu.Unlock()
	if err != nil {
		s.unfence(sess)
		return nil, fmt.Errorf("encoding session %q: %w", id, err)
	}

	// Phase 2 — stage the snapshot on the destination.
	// A fired plan with a nil Err is a pure hook (OnFire/Delay) — the
	// crash tests use it to land mutations deterministically inside the
	// tail-capture window; only a non-nil Err fails the phase.
	if p, ok := faultinject.CheckErr(faultinject.SiteMigrateSnapshot, 0); ok && p.Err != nil {
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("migration snapshot send: %v", p.Err)}
	}
	var prep migratePrepareResponse
	if err := PostJSON(ctx, s.peerClient, target, migratePreparePath, &migratePrepare{ID: id, Epoch: newEpoch, Snapshot: snap}, &prep, peerResponseCap); err != nil {
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, err
	}
	if prep.Already {
		// The destination is already the owner at this epoch or later —
		// possible only if a previous handoff completed without this
		// replica learning; refuse rather than guess.
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusConflict,
			msg: fmt.Sprintf("destination already owns session %q at epoch ≥ %d", id, newEpoch)}
	}

	// Phase 3 — fence, then durably cede ownership.
	sess.mu.Lock()
	if !sess.migrating || sess.closed {
		sess.mu.Unlock()
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session %q was destroyed during migration", id)}
	}
	tail := sess.tail
	sess.tail = nil
	sess.fenced = true
	fss := snapOf(sess)
	fss.Epoch = newEpoch
	final, err := json.Marshal(&fss)
	sess.mu.Unlock()
	if err != nil {
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, fmt.Errorf("encoding final state of %q: %w", id, err)
	}
	if p, ok := faultinject.CheckErr(faultinject.SiteMigrateCutover, 0); ok && p.Err != nil {
		// Failure before the MigrateOut record is durable: the cutover
		// never happened; unfence and report. (A process crash here
		// recovers the same way — the WAL has no trace of the transfer.)
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusInternalServerError, msg: fmt.Sprintf("migration cutover: %v", p.Err)}
	}
	unlock := s.dur.rlock()
	if err := s.dur.logOp(&oplog.Op{Type: oplog.TypeMigrateOut, Session: id, Peer: target, Epoch: newEpoch, Snapshot: final}); err != nil {
		unlock()
		s.unfence(sess)
		s.metrics.MigrationFailed()
		return nil, err
	}
	st.mu.Lock()
	sess.mu.Lock()
	sess.closed = true
	sess.migrating = false
	delete(st.m, id)
	st.moved[id] = &movedSession{target: target, epoch: newEpoch, state: final}
	sess.mu.Unlock()
	st.mu.Unlock()
	unlock()

	// Phase 4 — commit on the destination; one idempotent re-drive on
	// any transport or staging failure.
	var commitErr error
	if p, ok := faultinject.CheckErr(faultinject.SiteMigrateStream, 0); ok && p.Err != nil {
		commitErr = p.Err
	} else {
		commitErr = s.confirmCommit(ctx, id, target, newEpoch, final, tail)
	}
	if commitErr != nil && !errors.Is(commitErr, errDiverged) {
		commitErr = s.driveHandoff(ctx, id, target, newEpoch, final)
	}
	if commitErr != nil {
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusBadGateway,
			msg: fmt.Sprintf("session %q fenced but handoff unconfirmed (%v); re-POST the migration to re-drive", id, commitErr)}
	}

	// Phase 5 — the destination owns the session; drop the retained
	// state, keep the redirect.
	st.mu.Lock()
	if mv := st.moved[id]; mv != nil && mv.epoch == newEpoch {
		mv.state = nil
	}
	st.mu.Unlock()
	s.metrics.MigrationOut(time.Since(start))
	return &MigrateResponse{
		Migrated: true, ID: id, Target: target, Epoch: newEpoch,
		TailOps: len(tail), Bytes: len(final), DurationMS: durationMS(start),
	}, nil
}

// confirmCommit streams the tail and byte-checks the destination's final
// state against ours.
func (s *Server) confirmCommit(ctx context.Context, id, target string, epoch uint64, final []byte, tail []*oplog.Op) error {
	var res migrateCommitResponse
	if err := PostJSON(ctx, s.peerClient, target, migrateCommitPath, &migrateCommit{ID: id, Epoch: epoch, Tail: tail}, &res, peerResponseCap); err != nil {
		return err
	}
	if !res.Already && !bytes.Equal(res.State, final) {
		return fmt.Errorf("%w (%d vs %d bytes)", errDiverged, len(res.State), len(final))
	}
	return nil
}

// driveHandoff (re-)establishes a fenced handoff from its retained final
// state: prepare(state) + commit(no tail). Safe to repeat — a
// destination already active at the epoch answers "already".
func (s *Server) driveHandoff(ctx context.Context, id, target string, epoch uint64, state []byte) error {
	var prep migratePrepareResponse
	if err := PostJSON(ctx, s.peerClient, target, migratePreparePath, &migratePrepare{ID: id, Epoch: epoch, Snapshot: state}, &prep, peerResponseCap); err != nil {
		return err
	}
	if prep.Already {
		return nil
	}
	return s.confirmCommit(ctx, id, target, epoch, state, nil)
}

// unfence ends an outbound transfer that never reached its cutover: the
// session is live here again, unfenced, with no tail capture.
func (s *Server) unfence(sess *session) {
	sess.mu.Lock()
	sess.fenced = false
	sess.migrating = false
	sess.tail = nil
	sess.mu.Unlock()
}

// stagePrepare restores an inbound snapshot into the staging area,
// replacing any previous staging for the id (prepare is idempotent).
func (s *Server) stagePrepare(req *migratePrepare) (any, int, error) {
	st := s.sessions
	st.mu.Lock()
	if cur, ok := st.m[req.ID]; ok {
		cur.mu.Lock()
		e := cur.epoch
		cur.mu.Unlock()
		st.mu.Unlock()
		if e >= req.Epoch {
			return &migratePrepareResponse{Already: true}, 0, nil
		}
		// An active local copy at an older epoch means this replica
		// believes it owns the session — accepting the inbound copy
		// would fork it. Refuse; the operator resolves.
		return nil, 0, &httpError{code: http.StatusConflict,
			msg: fmt.Sprintf("session %q active here at epoch %d; refusing inbound epoch %d", req.ID, e, req.Epoch)}
	}
	st.mu.Unlock()
	var ss sessionSnap
	if err := json.Unmarshal(req.Snapshot, &ss); err != nil {
		return nil, 0, badRequest("decoding inbound snapshot: %v", err)
	}
	if ss.ID != req.ID {
		return nil, 0, badRequest("inbound snapshot is for session %q, not %q", ss.ID, req.ID)
	}
	sess, err := st.restoreSession(&ss)
	if err != nil {
		// The engine re-verified every recorded placement and refused:
		// the snapshot does not describe a state this server would hold.
		return nil, 0, &httpError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf("restoring inbound snapshot: %v", err)}
	}
	// Detached until activation: tail replay must not re-log (the
	// MigrateIn record carries the final state) nor count as admissions.
	sess.noLog = true
	sess.mx = nil
	st.mu.Lock()
	st.staging[req.ID] = &stagedSession{s: sess, epoch: req.Epoch}
	st.mu.Unlock()
	return &migratePrepareResponse{Staged: true}, 0, nil
}

// commitMigration replays the streamed tail onto the staged copy, logs
// the arrival, and activates the session. Any failure discards the
// staging — the source re-drives from its retained state. The tail ops
// were acknowledged at the source, so their replay runs to the end
// whatever this request's deadline.
func (s *Server) commitMigration(req *migrateCommit) (*migrateCommitResponse, error) {
	st := s.sessions
	st.mu.Lock()
	if cur, ok := st.m[req.ID]; ok {
		cur.mu.Lock()
		e := cur.epoch
		cur.mu.Unlock()
		st.mu.Unlock()
		if e >= req.Epoch {
			return &migrateCommitResponse{Already: true}, nil
		}
		return nil, &httpError{code: http.StatusConflict,
			msg: fmt.Sprintf("session %q active here at epoch %d; refusing inbound epoch %d", req.ID, e, req.Epoch)}
	}
	stg := st.staging[req.ID]
	if stg == nil || stg.epoch != req.Epoch {
		st.mu.Unlock()
		return nil, &httpError{code: http.StatusConflict,
			msg: fmt.Sprintf("no staged snapshot for session %q at epoch %d (re-prepare)", req.ID, req.Epoch)}
	}
	delete(st.staging, req.ID) // single-shot: any failure below discards it
	st.mu.Unlock()

	sess := stg.s
	for i, op := range req.Tail {
		if p, ok := faultinject.CheckErr(faultinject.SiteMigrateReplay, int64(i)); ok && p.Err != nil {
			s.metrics.MigrationFailed()
			return nil, &httpError{code: http.StatusInternalServerError, msg: fmt.Sprintf("migration replay: %v", p.Err)}
		}
		err := applySessionOp(sess, op)
		var he *httpError
		if err != nil && !errors.As(err, &he) {
			s.metrics.MigrationFailed()
			return nil, &httpError{code: http.StatusUnprocessableEntity,
				msg: fmt.Sprintf("replaying tail op %d (%s): %v", i, op.Type, err)}
		}
	}
	sess.mu.Lock()
	sess.epoch = req.Epoch
	sess.noLog = false
	sess.mx = st.mx
	state, err := encodeSession(sess)
	sess.mu.Unlock()
	if err != nil {
		s.metrics.MigrationFailed()
		return nil, fmt.Errorf("encoding migrated session %q: %w", req.ID, err)
	}

	// Durable arrival and activation are one unit under the snapshot
	// gate, so a snapshot can never record the MigrateIn without the
	// session (or vice versa).
	defer s.dur.rlock()()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.m) >= st.max {
		s.metrics.MigrationFailed()
		return nil, &httpError{code: http.StatusTooManyRequests, msg: fmt.Sprintf("session limit %d reached", st.max)}
	}
	if err := s.dur.logOp(&oplog.Op{Type: oplog.TypeMigrateIn, Session: req.ID, Epoch: req.Epoch, Snapshot: state}); err != nil {
		s.metrics.MigrationFailed()
		return nil, err // degraded: the source keeps its retained state and re-drives later
	}
	st.m[req.ID] = sess
	delete(st.moved, req.ID) // the session came home; retire the redirect
	if n, ok := autoSeq(req.ID); ok && n > st.seq {
		st.seq = n
	}
	s.metrics.MigrationIn()
	return &migrateCommitResponse{State: state}, nil
}

// applyMigrateOut replays an ownership handoff during recovery: the
// session (if the snapshot still had it) leaves the store and the
// tombstone — with retained state, since a recovering source cannot know
// whether the destination committed — takes its place. Re-driving from
// it is idempotent either way.
func (st *sessionStore) applyMigrateOut(op *oplog.Op) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sess, ok := st.m[op.Session]; ok {
		sess.mu.Lock()
		sess.closed = true
		sess.fenced = true
		sess.mu.Unlock()
		delete(st.m, op.Session)
	}
	st.moved[op.Session] = &movedSession{
		target: op.Peer,
		epoch:  op.Epoch,
		state:  append([]byte(nil), op.Snapshot...),
	}
	return nil
}

// applyMigrateIn replays a session arrival during recovery from its
// recorded final state.
func (st *sessionStore) applyMigrateIn(op *oplog.Op) error {
	var ss sessionSnap
	if err := json.Unmarshal(op.Snapshot, &ss); err != nil {
		return fmt.Errorf("op %d: decoding migrate-in state: %w", op.Index, err)
	}
	if ss.ID != op.Session {
		return fmt.Errorf("op %d: migrate-in state is for session %q, not %q", op.Index, ss.ID, op.Session)
	}
	sess, err := st.restoreSession(&ss)
	if err != nil {
		return fmt.Errorf("op %d: restoring migrate-in state: %w", op.Index, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[sess.id] = sess
	delete(st.moved, sess.id)
	if n, ok := autoSeq(sess.id); ok && n > st.seq {
		st.seq = n
	}
	return nil
}

// peerResponseCap bounds a replica-to-replica response (a migration
// prepare or commit answer).
const peerResponseCap = 1 << 26

// PostJSON POSTs body as JSON to base+path through client and decodes a
// 2xx response into out, reading at most maxResp response bytes — the
// one JSON peer-call helper, shared by migrating replicas and the
// cluster coordinator, which passes its own tighter cap for input from
// outside. Failures surface as 502s carrying the peer's answer, so the
// caller (and operators) see what the destination actually said.
func PostJSON(ctx context.Context, client *http.Client, base, path string, body, out any, maxResp int64) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(base, "/")+path, bytes.NewReader(b))
	if err != nil {
		return badRequest("building peer request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := client.Do(req)
	if err != nil {
		return &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("peer %s: %v", base, err)}
	}
	defer res.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(res.Body, maxResp))
	if res.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 512 {
			msg = msg[:512]
		}
		return &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("peer %s%s: %s: %s", base, path, res.Status, msg)}
	}
	if rerr != nil {
		return &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("peer %s%s: reading response: %v", base, path, rerr)}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf("peer %s%s: decoding response: %v", base, path, err)}
		}
	}
	return nil
}

func durationMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
