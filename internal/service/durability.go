package service

// The durability layer: every session-mutating operation is appended to
// a write-ahead log before it is applied, and the append is the
// acknowledgement point — a 200 means the op is on disk. Because every
// apply path is deterministic (the engine invariants the online package
// tests), recovery is snapshot + WAL-suffix replay through the same code
// the live server runs, and the recovered store is byte-identical to the
// pre-crash one for all acknowledged ops.
//
// Log-then-apply discipline. A mutation validates its arguments, checks
// its context, appends the op, and only then mutates state — with the
// context's cancellation stripped, so an acknowledged op can never be
// half-applied by a client hanging up. Ops whose apply fails
// deterministically (an engine rejection, a validation the engine
// itself performs) are safe to keep in the log: replaying them fails the
// same way and changes nothing.
//
// Consistency gate. Snapshots must capture a store where exactly the
// ops 1..index are applied. Every mutator holds gate.RLock across its
// append+apply; the snapshotter takes gate.Lock, so when it runs, every
// acknowledged append has finished applying and no new append can start.
// Lock order is always gate → store.mu → session.mu.
//
// Degraded mode. A WAL write or fsync failure latches the log failed
// (oplog's sticky error); from then on every mutation answers 503 with a
// Retry-After header, while reads keep serving from memory.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partfeas"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
)

// walSegmentBytes overrides the WAL's rotation threshold (0 keeps the
// oplog default). The crash-matrix test shrinks it so rotations happen
// within a short op script.
var walSegmentBytes int64

// errDegraded is every mutation's answer once the WAL has latched a
// persistent disk failure: read-only, try again later (or restart).
var errDegraded = &httpError{
	code:       http.StatusServiceUnavailable,
	msg:        "durability layer failed; session store is degraded to read-only (check the data directory's disk and restart)",
	retryAfter: 30,
}

// durability owns one data directory: the WAL, the snapshot files, and
// the policy connecting them to the session store. All methods are safe
// on a nil receiver (a server without -data-dir), which is what keeps
// the non-durable hot path free of any new branches beyond a nil check.
type durability struct {
	dir  string
	wal  *oplog.WAL
	st   *sessionStore
	logf func(format string, args ...any)

	// gate serializes snapshots against mutations; see the package
	// comment. Mutators take it shared before any store or session lock.
	gate sync.RWMutex

	// replaying suppresses re-logging while recovery drives ops through
	// the live mutation paths. Written only during single-threaded
	// startup, before any handler goroutine exists.
	replaying bool
	replayed  int // ops replayed at the last open (drain tests read it)

	snapEvery int // acknowledged ops between automatic snapshots; 0 = never

	degraded atomic.Bool

	mu        sync.Mutex
	sinceSnap int
	lastSnap  uint64
	snapCount uint64
	snapFails uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// WALStats is the scrape-time view of the durability layer, exported as
// the partfeas_wal_* metrics family.
type WALStats struct {
	oplog.Stats
	Snapshots        uint64
	SnapshotFailures uint64
	LastSnapshot     uint64
	Degraded         bool
}

// openDurability loads the newest valid snapshot (falling back past
// corrupt ones), opens the WAL positioned after it, replays the suffix
// through the real session paths, and starts the snapshot goroutine.
func openDurability(dir string, fsync time.Duration, snapEvery int, st *sessionStore, logf func(string, ...any)) (*durability, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &durability{
		dir:       dir,
		st:        st,
		logf:      logf,
		snapEvery: snapEvery,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	st.dur = d
	idx, payload, skipped, err := oplog.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		logf("service: skipped %d corrupt snapshot(s); recovering from index %d", skipped, idx)
	}
	if payload != nil {
		if err := d.restoreStore(payload); err != nil {
			return nil, fmt.Errorf("service: snapshot %d: %w", idx, err)
		}
	}
	w, err := oplog.Open(dir, oplog.Options{FsyncInterval: fsync, SegmentBytes: walSegmentBytes, Start: idx + 1})
	if err != nil {
		return nil, err
	}
	d.wal = w
	d.lastSnap = idx
	d.replaying = true
	err = w.Replay(idx+1, func(op *oplog.Op) error {
		d.replayed++
		return d.apply(op)
	})
	d.replaying = false
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("service: replay: %w", err)
	}
	logf("service: durability on %s: %d session(s) recovered (%d op(s) replayed after snapshot %d)",
		dir, st.count(), d.replayed, idx)
	go d.snapshotLoop()
	return d, nil
}

// rlock takes the snapshot gate shared; every mutating entry point calls
// it before any other lock and defers the returned unlock.
func (d *durability) rlock() func() {
	if d == nil {
		return func() {}
	}
	d.gate.RLock()
	return d.gate.RUnlock
}

// logOp is the acknowledgement point: it appends op to the WAL and
// returns only once the record has reached the file (and, with a zero
// fsync interval, the platter). Callers must not mutate state before it
// returns nil. Nil receiver and replay mode are no-ops.
func (d *durability) logOp(op *oplog.Op) error {
	if d == nil || d.replaying {
		return nil
	}
	if _, err := d.wal.Append(op); err != nil {
		if d.degraded.CompareAndSwap(false, true) {
			d.logf("service: WAL append failed; entering degraded read-only mode: %v", err)
		}
		return errDegraded
	}
	if d.snapEvery > 0 {
		d.mu.Lock()
		d.sinceSnap++
		due := d.sinceSnap >= d.snapEvery
		d.mu.Unlock()
		if due {
			select {
			case d.kick <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

// mode is the wire-visible durability mode ("wal" or "none").
func (d *durability) mode() string {
	if d == nil {
		return "none"
	}
	return "wal"
}

func (d *durability) snapshotLoop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
			if err := d.Snapshot(); err != nil {
				d.logf("service: snapshot: %v", err)
			}
		}
	}
}

// Snapshot atomically persists the full store at the current applied
// index, prunes to the two newest snapshots, and truncates WAL segments
// the older retained snapshot makes redundant (so the newest snapshot
// stays re-derivable from disk even if it later reads back corrupt).
func (d *durability) Snapshot() error {
	if d == nil {
		return nil
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	// Under the exclusive gate every acknowledged append has finished
	// applying, so the store state is exactly ops 1..NextIndex-1.
	idx := d.wal.NextIndex() - 1
	d.mu.Lock()
	last := d.lastSnap
	d.mu.Unlock()
	if idx <= last {
		return nil
	}
	payload, err := d.encodeStore()
	if err != nil {
		return d.snapshotFailed(err)
	}
	if err := oplog.WriteSnapshot(d.dir, idx, payload); err != nil {
		return d.snapshotFailed(err)
	}
	// sinceSnap resets only now that the snapshot is durably on disk: a
	// failed attempt keeps the counter at/above snapEvery, so the next
	// acknowledged op kicks a retry instead of waiting a full window.
	d.mu.Lock()
	prev := d.lastSnap
	d.lastSnap = idx
	d.snapCount++
	d.sinceSnap = 0
	d.mu.Unlock()
	if err := oplog.PruneSnapshots(d.dir, 2); err != nil {
		return err
	}
	if prev > 0 {
		return d.wal.TruncateThrough(prev)
	}
	return nil
}

// Close drains the layer: stops the snapshot goroutine, flushes the
// group-commit buffer, writes a final snapshot (so a restart after a
// clean drain replays zero WAL records), and closes the WAL.
func (d *durability) Close() error {
	if d == nil {
		return nil
	}
	var err error
	d.once.Do(func() {
		close(d.stop)
		<-d.done
		serr := d.wal.Sync()
		snerr := d.Snapshot()
		cerr := d.wal.Close()
		for _, e := range []error{serr, snerr, cerr} {
			if err == nil && e != nil {
				err = e
			}
		}
	})
	return err
}

// crash abandons the layer without flushing or snapshotting — exactly
// the on-disk state a process kill leaves behind. For the crash-matrix
// and cluster oracle tests; the store must not be used afterwards.
func (d *durability) crash() {
	if d == nil {
		return
	}
	d.once.Do(func() {
		close(d.stop)
		<-d.done
		d.wal.Crash()
	})
}

// snapshotFailed counts a failed snapshot attempt (surfaced as
// partfeas_wal_snapshot_failures_total so operators notice persistent
// failure before the WAL grows huge) and passes the error through.
func (d *durability) snapshotFailed(err error) error {
	d.mu.Lock()
	d.snapFails++
	d.mu.Unlock()
	return err
}

// walStats is the metrics callback.
func (d *durability) walStats() WALStats {
	d.mu.Lock()
	snaps, fails, last := d.snapCount, d.snapFails, d.lastSnap
	d.mu.Unlock()
	return WALStats{
		Stats:            d.wal.Stats(),
		Snapshots:        snaps,
		SnapshotFailures: fails,
		LastSnapshot:     last,
		Degraded:         d.degraded.Load(),
	}
}

// apply dispatches one replayed op through the same session paths the
// live server runs. Deterministic rejections (httpErrors) are tolerated
// for mutations — the live server answered the same error after the
// append was acknowledged, so state did not change then either. Create
// and destroy log after their last fallible step, so their replay must
// succeed; any error there is real corruption.
func (d *durability) apply(op *oplog.Op) error {
	switch op.Type {
	case oplog.TypeCreate:
		return d.applyCreate(op)
	case oplog.TypeDestroy:
		return d.st.remove(op.Session)
	case oplog.TypeMigrateOut:
		return d.st.applyMigrateOut(op)
	case oplog.TypeMigrateIn:
		return d.st.applyMigrateIn(op)
	}
	s, err := d.st.get(op.Session)
	if err != nil {
		return fmt.Errorf("op %d (%s) targets unknown session %q", op.Index, op.Type, op.Session)
	}
	err = applySessionOp(s, op)
	var he *httpError
	if errors.As(err, &he) {
		return nil // deterministic rejection: a no-op live, a no-op now
	}
	return err
}

// applySessionOp drives one logged per-session mutation through the same
// paths the live server runs. Shared by recovery replay and migration
// commit (the destination replays the source's WAL tail through it).
// httpErrors are deterministic rejections and propagate for the caller
// to tolerate. The op was acknowledged when it was logged, so it runs on
// the zero budget, which never expires.
func applySessionOp(s *session, op *oplog.Op) error {
	var b budget
	var err error
	switch op.Type {
	case oplog.TypeAdmit:
		if len(op.Tasks) != 1 {
			return fmt.Errorf("op %d: admit with %d tasks", op.Index, len(op.Tasks))
		}
		t := op.Tasks[0]
		_, err = s.addTask(b, partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}, t.Deadline, op.Force)
	case oplog.TypeAdmitBatch:
		mode, merr := parseBatchMode(op.BatchMode)
		if merr != nil {
			return fmt.Errorf("op %d: %w", op.Index, merr)
		}
		ts := make([]partfeas.Task, len(op.Tasks))
		dls := make([]int64, len(op.Tasks))
		for i, t := range op.Tasks {
			ts[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
			dls[i] = t.Deadline
		}
		_, err = s.addTaskBatch(b, ts, dls, mode)
	case oplog.TypeRemove:
		// A live remove is forced, but a constrained one logged without
		// force (older binaries) was rolled back when its shrunken set
		// re-solved infeasible; it replays so, or every later
		// index-addressed op would land on a different task.
		_, err = s.removeTask(b, op.Target, op.Force || !s.constrained)
	case oplog.TypeUpdateWCET:
		_, err = s.updateWCET(b, op.Target, op.WCET, op.Force)
	case oplog.TypeRepartition:
		_, err = s.repartition(b, op.Target, true)
	default:
		return fmt.Errorf("op %d: unknown type %v", op.Index, op.Type)
	}
	return err
}

func (d *durability) applyCreate(op *oplog.Op) error {
	in, dls, placement, err := instanceFromOp(op)
	if err != nil {
		return fmt.Errorf("op %d: %w", op.Index, err)
	}
	// The recorded id is replayed explicitly, so coordinator-assigned and
	// store-assigned ids alike reconstruct byte-identically.
	if _, err := d.st.create(budget{}, in, dls, op.Alpha, placement, op.Session); err != nil {
		return fmt.Errorf("op %d: replay create: %w", op.Index, err)
	}
	return nil
}

// instanceFromOp rebuilds a create op's instance, deadlines (nil for an
// implicit-deadline session) and placement policy.
func instanceFromOp(op *oplog.Op) (partfeas.Instance, []int64, online.Policy, error) {
	var in partfeas.Instance
	sched, err := parseScheduler(op.Scheduler)
	if err != nil {
		return in, nil, nil, err
	}
	in.Scheduler = sched
	placement, err := parsePlacement(op.Placement)
	if err != nil {
		return in, nil, nil, err
	}
	in.Tasks = make(partfeas.TaskSet, len(op.Tasks))
	var dls []int64
	if op.DeadlineModel == "constrained" {
		dls = make([]int64, len(op.Tasks))
	}
	for i, t := range op.Tasks {
		in.Tasks[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if dls != nil {
			dls[i] = t.Deadline
		}
	}
	in.Platform = make(partfeas.Platform, len(op.Machines))
	for i, m := range op.Machines {
		in.Platform[i] = partfeas.Machine{Name: m.Name, Speed: m.Speed}
	}
	return in, dls, placement, nil
}

// parseScheduler inverts Scheduler.String() (records store the canonical
// "EDF"/"RMS" form).
func parseScheduler(s string) (partfeas.Scheduler, error) {
	switch s {
	case partfeas.EDF.String():
		return partfeas.EDF, nil
	case partfeas.RMS.String():
		return partfeas.RMS, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", s)
}

// parsePlacement resolves a recorded placement name. ParsePolicy keeps
// the legacy "sorted"/"arrival" aliases older WALs and snapshots wrote,
// so pre-policy durable state replays unchanged.
func parsePlacement(s string) (online.Policy, error) {
	return online.ParsePolicy(s)
}

func parseBatchMode(s string) (online.BatchMode, error) {
	switch s {
	case "", online.BestEffort.String():
		return online.BestEffort, nil
	case online.AllOrNothing.String():
		return online.AllOrNothing, nil
	}
	return 0, fmt.Errorf("unknown batch mode %q", s)
}

// The snapshot payload: the store serialized as JSON inside oplog's
// checksummed snapshot container. Sessions are ordered by id so equal
// stores serialize to equal bytes. Floats round-trip exactly —
// encoding/json emits the shortest representation that parses back to
// the same float64 — so restored alphas and speeds are bit-identical.
type storeSnap struct {
	Seq      uint64        `json:"seq"`
	Sessions []sessionSnap `json:"sessions"`
}

type sessionSnap struct {
	ID          string        `json:"id"`
	Scheduler   string        `json:"scheduler"`
	Alpha       float64       `json:"alpha"`
	Placement   string        `json:"placement"`
	Constrained bool          `json:"constrained,omitempty"`
	Tasks       []oplog.Task  `json:"tasks"`
	Machines    []MachineJSON `json:"machines"`
	// Engine records whether the session was armed (false: disarmed, on
	// a first_fit_sorted engine that the restore rebuilds). Placed is the
	// armed engine's per-machine placement history, which arrival-order
	// restores refold verbatim; sorted-order engines re-solve and ignore
	// it.
	Engine bool      `json:"engine"`
	Placed [][]int32 `json:"placed,omitempty"`
	// RepartCnt is the PeriodicRepartition cadence counter; without it a
	// restored engine would fire its next rebuild at a different
	// mutation than the original and replayed state would diverge.
	RepartCnt int `json:"repart_cnt,omitempty"`
	// Epoch is the session's ownership epoch (see migrate.go); omitted
	// (and restored as 1) in pre-cluster snapshots.
	Epoch uint64 `json:"epoch,omitempty"`
}

// snapOf builds one session's snapshot record. Caller holds s.mu (or has
// sole ownership).
func snapOf(s *session) sessionSnap {
	ss := sessionSnap{
		ID:          s.id,
		Scheduler:   s.in.Scheduler.String(),
		Alpha:       s.alpha,
		Placement:   s.placement.Name(),
		Constrained: s.constrained,
		Tasks:       make([]oplog.Task, len(s.in.Tasks)),
		Machines:    make([]MachineJSON, len(s.in.Platform)),
		Engine:      s.armed(),
		Epoch:       s.epoch,
	}
	for i, t := range s.in.Tasks {
		ss.Tasks[i] = oplog.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if s.constrained {
			ss.Tasks[i].Deadline = s.eng.Deadline(i)
		}
	}
	for i, m := range s.in.Platform {
		ss.Machines[i] = MachineJSON{Name: m.Name, Speed: m.Speed}
	}
	if ss.Engine {
		ss.Placed = s.eng.PlacedLists()
		ss.RepartCnt = s.eng.RepartCount()
	}
	return ss
}

// encodeSession serializes one session's state. Restore followed by
// re-encode is byte-stable, which is what lets migration prove the
// destination's copy equals the source's with one comparison. Caller
// holds s.mu.
func encodeSession(s *session) ([]byte, error) {
	ss := snapOf(s)
	return json.Marshal(&ss)
}

// encodeStore serializes every session. Caller holds the exclusive gate,
// so per-session locks are uncontended and the view is an op boundary.
func (d *durability) encodeStore() ([]byte, error) {
	d.st.mu.Lock()
	snap := storeSnap{Seq: d.st.seq, Sessions: make([]sessionSnap, 0, len(d.st.m))}
	sessions := make([]*session, 0, len(d.st.m))
	for _, s := range d.st.m {
		sessions = append(sessions, s)
	}
	d.st.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool {
		a, b := sessions[i].id, sessions[j].id
		if len(a) != len(b) { // "s-<n>" ids: shorter means smaller n; any total order works
			return len(a) < len(b)
		}
		return a < b
	})
	for _, s := range sessions {
		s.mu.Lock()
		ss := snapOf(s)
		s.mu.Unlock()
		snap.Sessions = append(snap.Sessions, ss)
	}
	return json.Marshal(snap)
}

// restoreStore rebuilds the session store from a snapshot payload.
// Engines are restored through online.NewEngine with Options.Placed,
// which re-verifies every recorded placement with the engine's own
// admission predicate — a tampered snapshot is rejected, not
// resurrected.
func (d *durability) restoreStore(payload []byte) error {
	var snap storeSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	d.st.mu.Lock()
	d.st.seq = snap.Seq
	d.st.mu.Unlock()
	for i := range snap.Sessions {
		s, err := d.st.restoreSession(&snap.Sessions[i])
		if err != nil {
			return fmt.Errorf("session %s: %w", snap.Sessions[i].ID, err)
		}
		d.st.mu.Lock()
		d.st.m[s.id] = s
		d.st.mu.Unlock()
	}
	return nil
}

// snapPlaced normalizes a snapshot's placed lists for NewEngine: a nil
// record is a corrupt snapshot and must fail placement verification,
// not silently rebuild a fresh placement.
func snapPlaced(placed [][]int32) [][]int32 {
	if placed == nil {
		return [][]int32{}
	}
	return placed
}

// restoreSession rebuilds one session from its snapshot record. Used by
// snapshot recovery, MigrateIn replay, and migration staging (which
// detaches mx/noLog until activation).
func (st *sessionStore) restoreSession(ss *sessionSnap) (*session, error) {
	sched, err := parseScheduler(ss.Scheduler)
	if err != nil {
		return nil, err
	}
	placement, err := parsePlacement(ss.Placement)
	if err != nil {
		return nil, err
	}
	s := &session{
		id:          ss.ID,
		alpha:       ss.Alpha,
		placement:   placement,
		constrained: ss.Constrained,
		epoch:       ss.Epoch,
		mx:          st.mx,
		dur:         st.dur,
	}
	if s.epoch == 0 {
		s.epoch = 1 // pre-cluster snapshot
	}
	s.in.Scheduler = sched
	s.in.Tasks = make(partfeas.TaskSet, len(ss.Tasks))
	for i, t := range ss.Tasks {
		s.in.Tasks[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
	}
	s.in.Platform = make(partfeas.Platform, len(ss.Machines))
	for i, m := range ss.Machines {
		s.in.Platform[i] = partfeas.Machine{Name: m.Name, Speed: m.Speed}
	}
	var dls []int64
	if ss.Constrained {
		dls = make([]int64, len(ss.Tasks))
		for i, t := range ss.Tasks {
			dls[i] = t.Deadline
		}
	}
	if !ss.Engine {
		// A disarmed session restores onto a first_fit_sorted engine,
		// which vets the set read from disk like any other input.
		err = s.disarm(dls)
	} else {
		opts := s.engineOptions(dls)
		opts.Placed, opts.RepartCnt = snapPlaced(ss.Placed), ss.RepartCnt
		s.eng, err = online.NewEngine(s.in.Tasks, s.in.Platform, opts)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}
