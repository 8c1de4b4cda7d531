package service

// Crash-recovery tests for the durability layer. The central assertion,
// used by every test here, is byte-identity of the serialized session
// store: two stores are "the same" exactly when encodeStore emits the
// same bytes (ids, task multisets, alphas, engine placements and all).
//
// The crash matrix drives a fixed mutation script against a durable
// server while one fault-injection plan is armed, simulates a process
// kill, recovers, and checks the recovered store equals a reference
// store that applied exactly the acknowledged ops — or the acknowledged
// ops plus the one faulted op, which is legal when the faulted record
// reached the file before its append reported failure (durable but
// unacknowledged; the client saw an error, so either outcome is
// consistent).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"partfeas"
	"partfeas/internal/faultinject"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
)

var errInjectedDisk = errors.New("injected disk failure")

func mustDurable(t testing.TB, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable(%s): %v", dir, err)
	}
	// crash() is once-guarded, so this is a no-op for servers the test
	// body already closed or crashed; it only stops the snapshot
	// goroutine before the test's Logf becomes invalid.
	t.Cleanup(srv.Crash)
	return srv
}

func storeBytes(t testing.TB, srv *Server) []byte {
	t.Helper()
	b, err := srv.dur.encodeStore()
	if err != nil {
		t.Fatalf("encodeStore: %v", err)
	}
	return b
}

type scriptStep struct {
	name string
	run  func(srv *Server) error
}

// durabilityScript is a fixed mutation sequence covering every logged op
// type and both engine modes: implicit sorted and arrival sessions, a
// constrained-deadline session, singleton admits, best-effort and
// all-or-nothing batches, a force-committed infeasible set (batch-tester
// fallback), WCET updates, removals, an applied repartition, and a
// create+destroy pair. Step k appends WAL op k+1, which is what lets the
// crash matrix aim a fault at a specific op index.
func durabilityScript() []scriptStep {
	ctx := context.Background()
	instance := func(sched partfeas.Scheduler) partfeas.Instance {
		return partfeas.Instance{
			Tasks: partfeas.TaskSet{
				{Name: "video", WCET: 9, Period: 30},
				{Name: "audio", WCET: 1, Period: 4},
				{Name: "net", WCET: 3, Period: 10},
			},
			Platform:  partfeas.Platform{{Name: "m0", Speed: 1}, {Name: "m1", Speed: 1}, {Name: "m2", Speed: 4}},
			Scheduler: sched,
		}
	}
	withSession := func(id string, f func(s *session) error) func(*Server) error {
		return func(srv *Server) error {
			s, err := srv.sessions.get(id)
			if err != nil {
				return err
			}
			return f(s)
		}
	}
	return []scriptStep{
		{"create-s1-sorted-edf", func(srv *Server) error {
			_, err := srv.sessions.create(budget{}, instance(partfeas.EDF), nil, 1, online.FirstFitSorted(), "")
			return err
		}},
		{"create-s2-arrival-rms", func(srv *Server) error {
			_, err := srv.sessions.create(budget{}, instance(partfeas.RMS), nil, 2, online.FirstFitArrival(), "")
			return err
		}},
		{"create-s3-constrained", func(srv *Server) error {
			in := partfeas.Instance{
				Tasks:     partfeas.TaskSet{{Name: "ca", WCET: 1, Period: 4}, {Name: "cb", WCET: 2, Period: 10}},
				Platform:  partfeas.Platform{{Name: "c0", Speed: 1}, {Name: "c1", Speed: 1}},
				Scheduler: partfeas.EDF,
			}
			_, err := srv.sessions.create(budget{}, in, []int64{3, 8}, 1, online.FirstFitSorted(), "")
			return err
		}},
		{"s1-admit", withSession("s-1", func(s *session) error {
			_, err := s.addTask(budget{ctx: ctx}, partfeas.Task{Name: "ui", WCET: 2, Period: 12}, 0, false)
			return err
		})},
		{"s2-admit", withSession("s-2", func(s *session) error {
			_, err := s.addTask(budget{ctx: ctx}, partfeas.Task{Name: "sensor", WCET: 1, Period: 20}, 0, false)
			return err
		})},
		{"s1-batch-best-effort", withSession("s-1", func(s *session) error {
			_, err := s.addTaskBatch(budget{ctx: ctx},
				[]partfeas.Task{{Name: "x1", WCET: 1, Period: 5}, {Name: "x2", WCET: 40, Period: 50}, {Name: "x3", WCET: 1, Period: 7}},
				[]int64{0, 0, 0}, online.BestEffort)
			return err
		})},
		{"s2-batch-all-or-nothing", withSession("s-2", func(s *session) error {
			_, err := s.addTaskBatch(budget{ctx: ctx},
				[]partfeas.Task{{Name: "y1", WCET: 1, Period: 9}, {Name: "y2", WCET: 1, Period: 11}},
				[]int64{0, 0}, online.AllOrNothing)
			return err
		})},
		{"create-s4", func(srv *Server) error {
			in := partfeas.Instance{
				Tasks:     partfeas.TaskSet{{Name: "solo", WCET: 1, Period: 3}},
				Platform:  partfeas.Platform{{Name: "q0", Speed: 1}},
				Scheduler: partfeas.EDF,
			}
			_, err := srv.sessions.create(budget{}, in, nil, 1, online.FirstFitSorted(), "")
			return err
		}},
		{"s4-force-infeasible", withSession("s-4", func(s *session) error {
			_, err := s.addTask(budget{ctx: ctx}, partfeas.Task{Name: "hog", WCET: 100, Period: 10}, 0, true)
			return err
		})},
		{"s4-wcet-recover", withSession("s-4", func(s *session) error {
			_, err := s.updateWCET(budget{ctx: ctx}, 1, 1, false)
			return err
		})},
		{"s1-remove", withSession("s-1", func(s *session) error {
			_, err := s.removeTask(budget{ctx: ctx}, 1, true)
			return err
		})},
		{"s3-admit-constrained", withSession("s-3", func(s *session) error {
			_, err := s.addTask(budget{ctx: ctx}, partfeas.Task{Name: "cc", WCET: 1, Period: 6}, 5, false)
			return err
		})},
		{"s2-repartition-apply", withSession("s-2", func(s *session) error {
			_, err := s.repartition(budget{ctx: ctx}, 0, true)
			return err
		})},
		{"s1-wcet", withSession("s-1", func(s *session) error {
			_, err := s.updateWCET(budget{ctx: ctx}, 0, 8, false)
			return err
		})},
		{"create-s5", func(srv *Server) error {
			_, err := srv.sessions.create(budget{}, instance(partfeas.EDF), nil, 1.5, online.FirstFitSorted(), "")
			return err
		}},
		{"destroy-s5", func(srv *Server) error {
			return srv.sessions.remove("s-5")
		}},
		{"s2-remove", withSession("s-2", func(s *session) error {
			_, err := s.removeTask(budget{ctx: ctx}, 0, true)
			return err
		})},
		// A non-first-fit policy lane: the WAL records the canonical
		// policy name ("best_fit") and replay/restore must resolve it
		// through the same ParsePolicy grammar the handlers use.
		{"create-s6-bestfit", func(srv *Server) error {
			_, err := srv.sessions.create(budget{}, instance(partfeas.EDF), nil, 1, online.BestFit(), "")
			return err
		}},
		{"s6-admit", withSession("s-6", func(s *session) error {
			_, err := s.addTask(budget{ctx: ctx}, partfeas.Task{Name: "bf", WCET: 2, Period: 9}, 0, false)
			return err
		})},
	}
}

func runScript(t testing.TB, srv *Server, steps []scriptStep) {
	t.Helper()
	for _, stp := range steps {
		if err := stp.run(srv); err != nil {
			t.Fatalf("step %s: %v", stp.name, err)
		}
	}
}

// referenceBytes builds a fresh durable store, applies the first n
// script steps, and returns its serialized bytes.
func referenceBytes(t testing.TB, steps []scriptStep, n int) []byte {
	t.Helper()
	ref := mustDurable(t, t.TempDir(), Config{FsyncInterval: -1, SnapshotEvery: -1})
	runScript(t, ref, steps[:n])
	b := storeBytes(t, ref)
	ref.Crash()
	return b
}

// TestDurableRecoveryByteIdentical proves the tentpole claim both ways a
// durable server can go down: after a clean drain (Close) the final
// snapshot carries the whole store and zero WAL records replay; after a
// simulated kill (Crash) the full op suffix replays through the live
// mutation paths. Either way the recovered store serializes to exactly
// the pre-shutdown bytes and keeps serving admissions.
func TestDurableRecoveryByteIdentical(t *testing.T) {
	steps := durabilityScript()
	for _, variant := range []string{"drain", "crash"} {
		t.Run(variant, func(t *testing.T) {
			dir := t.TempDir()
			srv := mustDurable(t, dir, Config{SnapshotEvery: -1})
			runScript(t, srv, steps)
			want := storeBytes(t, srv)
			if variant == "drain" {
				if err := srv.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			} else {
				srv.Crash()
			}
			rec := mustDurable(t, dir, Config{SnapshotEvery: -1})
			if got := storeBytes(t, rec); !bytes.Equal(got, want) {
				t.Errorf("recovered store differs:\n got %s\nwant %s", got, want)
			}
			switch variant {
			case "drain":
				if rec.dur.replayed != 0 {
					t.Errorf("replayed %d op(s) after a clean drain, want 0", rec.dur.replayed)
				}
			case "crash":
				if rec.dur.replayed != len(steps) {
					t.Errorf("replayed %d op(s) after a crash, want %d", rec.dur.replayed, len(steps))
				}
			}
			// The recovered store is live, not an archive: a further
			// admission must go through (and be logged in its turn).
			s1, err := rec.sessions.get("s-1")
			if err != nil {
				t.Fatalf("recovered s-1: %v", err)
			}
			if _, err := s1.addTask(budget{ctx: context.Background()}, partfeas.Task{Name: "probe", WCET: 1, Period: 100}, 0, false); err != nil {
				t.Errorf("admission on recovered session: %v", err)
			}
			rec.Crash()
		})
	}
}

// TestDurableCrashMatrix kills the durability layer at every injected
// crash point — append (torn, empty and durable-but-unacked writes),
// fsync, segment rotation, snapshot persistence — recovers, and asserts
// the recovered store equals a reference applying exactly the
// acknowledged ops (or those plus the single faulted op when its record
// reached the file).
func TestDurableCrashMatrix(t *testing.T) {
	steps := durabilityScript()
	type matrixCase struct {
		name     string
		segBytes int64 // WAL segment size override; 0 keeps the default
		plan     faultinject.Plan
		direct   bool // fault a direct Snapshot() call, not a script op
	}
	cases := []matrixCase{
		{name: "append-nothing-written-op1", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 1, Err: errInjectedDisk}},
		{name: "append-torn-mid-record-op6", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 6, Err: errInjectedDisk, Partial: 7}},
		{name: "append-durable-unacked-op4", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 4, Err: errInjectedDisk, Partial: 1 << 20}},
		{name: "fsync-op2", plan: faultinject.Plan{Site: faultinject.SiteWALFsync, N: 2, Err: errInjectedDisk}},
		{name: "rotate-first", segBytes: 512, plan: faultinject.Plan{Site: faultinject.SiteWALRotate, Nth: 1, Err: errInjectedDisk}},
		{name: "snapshot-write", direct: true, plan: faultinject.Plan{Site: faultinject.SiteSnapshotWrite, Nth: 1, Err: errInjectedDisk}},
	}
	if !testing.Short() {
		cases = append(cases,
			matrixCase{name: "append-nothing-written-op9", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 9, Err: errInjectedDisk}},
			matrixCase{name: "append-torn-mid-record-op15", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 15, Err: errInjectedDisk, Partial: 5}},
			matrixCase{name: "append-durable-unacked-op12", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 12, Err: errInjectedDisk, Partial: 1 << 20}},
			matrixCase{name: "append-durable-unacked-op16", plan: faultinject.Plan{Site: faultinject.SiteWALAppend, N: 16, Err: errInjectedDisk, Partial: 1 << 20}},
			matrixCase{name: "fsync-op11", plan: faultinject.Plan{Site: faultinject.SiteWALFsync, N: 11, Err: errInjectedDisk}},
			matrixCase{name: "rotate-first-tiny-segments", segBytes: 256, plan: faultinject.Plan{Site: faultinject.SiteWALRotate, Nth: 1, Err: errInjectedDisk}},
		)
	}
	for _, mc := range cases {
		t.Run(mc.name, func(t *testing.T) {
			oldSeg := walSegmentBytes
			walSegmentBytes = mc.segBytes
			defer func() { walSegmentBytes = oldSeg }()

			dir := t.TempDir()
			srv := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
			failIdx := -1
			if mc.direct {
				runScript(t, srv, steps)
				deactivate := faultinject.Activate(mc.plan)
				err := srv.dur.Snapshot()
				deactivate()
				if err == nil {
					t.Fatal("Snapshot with injected write fault: want error")
				}
			} else {
				deactivate := faultinject.Activate(mc.plan)
				errs := make([]error, len(steps))
				for i, stp := range steps {
					errs[i] = stp.run(srv)
				}
				deactivate()
				for i, err := range errs {
					if err != nil {
						failIdx = i
						break
					}
				}
				if failIdx < 0 {
					t.Fatalf("no step failed under plan %+v", mc.plan)
				}
				// The failure is sticky: once the WAL degrades, no later
				// op may be acknowledged (half-applied acks would follow).
				for i := failIdx; i < len(steps); i++ {
					if errs[i] == nil {
						t.Fatalf("step %s acknowledged after WAL degradation", steps[i].name)
					}
				}
			}
			srv.Crash()

			rec := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
			got := storeBytes(t, rec)
			rec.Crash()

			if mc.direct {
				// Every op was acknowledged; the failed snapshot must not
				// cost any of them.
				if want := referenceBytes(t, steps, len(steps)); !bytes.Equal(got, want) {
					t.Errorf("recovered store lost acknowledged ops:\n got %s\nwant %s", got, want)
				}
				return
			}
			acked := referenceBytes(t, steps, failIdx)
			plus := referenceBytes(t, steps, failIdx+1)
			switch {
			case bytes.Equal(got, acked):
				t.Logf("recovered = acked ops (faulted op %s lost, as unacknowledged)", steps[failIdx].name)
			case bytes.Equal(got, plus):
				t.Logf("recovered = acked + faulted op %s (record was durable, ack was not)", steps[failIdx].name)
			default:
				t.Errorf("recovered store matches neither acked nor acked+faulted reference:\n  got %s\nacked %s\n plus %s", got, acked, plus)
			}
		})
	}
}

// TestDestroyMutationWALOrdering regresses a WAL ordering race: a
// per-session mutation that had already passed its s.closed check could
// append its op after the session's TypeDestroy record; replay then
// applied the destroy first, hit "targets unknown session" on the
// orphaned mutation, and the server permanently refused to start from
// that WAL. remove() now closes the session under s.mu before the
// destroy record is appended, so the destroy is the session's last
// logged op by construction — this test races mutators against the
// destroy and asserts the directory always recovers.
func TestDestroyMutationWALOrdering(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	ctx := context.Background()
	in := partfeas.Instance{
		Tasks:     partfeas.TaskSet{{Name: "a", WCET: 1, Period: 4}, {Name: "b", WCET: 1, Period: 8}},
		Platform:  partfeas.Platform{{Name: "m0", Speed: 2}, {Name: "m1", Speed: 2}},
		Scheduler: partfeas.EDF,
	}
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		srv := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
		s, err := srv.sessions.create(budget{}, in, nil, 1, online.FirstFitSorted(), "")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					var err error
					if i%2 == 0 {
						_, err = s.addTask(budget{ctx: ctx}, partfeas.Task{Name: fmt.Sprintf("w%d-%d", w, i), WCET: 1, Period: 1000}, 0, false)
					} else {
						_, err = s.updateWCET(budget{ctx: ctx}, 0, int64(1+i%2), false)
					}
					if err == errSessionClosed {
						return
					}
					if err != nil {
						t.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		close(start)
		if err := srv.sessions.remove(s.id); err != nil {
			t.Fatalf("remove: %v", err)
		}
		wg.Wait()
		want := storeBytes(t, srv)
		srv.Crash()
		// The key assertion: the WAL must replay cleanly (pre-fix, a
		// mutation record after the destroy made this open fail).
		rec := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
		if got := storeBytes(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("round %d: recovered store differs:\n got %s\nwant %s", round, got, want)
		}
		rec.Crash()
	}
}

// TestSnapshotFailureRetries pins the retry contract around a failed
// snapshot: the pending-op counter is not consumed by the failure (so
// the next acknowledged op kicks a retry instead of waiting out a full
// snapshot window with no snapshot taken), and the failure is visible
// to operators via partfeas_wal_snapshot_failures_total.
func TestSnapshotFailureRetries(t *testing.T) {
	srv := mustDurable(t, t.TempDir(), Config{FsyncInterval: -1, SnapshotEvery: 1 << 20})
	steps := durabilityScript()[:5]
	runScript(t, srv, steps)
	d := srv.dur
	pending := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.sinceSnap
	}
	if got := pending(); got != len(steps) {
		t.Fatalf("sinceSnap = %d after %d acknowledged ops", got, len(steps))
	}

	deactivate := faultinject.Activate(faultinject.Plan{Site: faultinject.SiteSnapshotWrite, Nth: 1, Err: errInjectedDisk})
	err := d.Snapshot()
	deactivate()
	if err == nil {
		t.Fatal("Snapshot with injected write fault: want error")
	}
	if got := pending(); got != len(steps) {
		t.Errorf("failed snapshot consumed the pending-op counter: sinceSnap = %d, want %d", got, len(steps))
	}
	if ws := d.walStats(); ws.SnapshotFailures != 1 || ws.Snapshots != 0 || ws.LastSnapshot != 0 {
		t.Errorf("stats after failure = %+v, want 1 failure and no snapshot", ws)
	}
	w := do(t, srv, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "partfeas_wal_snapshot_failures_total 1") {
		t.Errorf("metrics do not report the snapshot failure:\n%s", w.Body)
	}

	// With the fault gone the retry succeeds and resets the counter.
	if err := d.Snapshot(); err != nil {
		t.Fatalf("retry Snapshot: %v", err)
	}
	if got := pending(); got != 0 {
		t.Errorf("sinceSnap = %d after successful snapshot, want 0", got)
	}
	if ws := d.walStats(); ws.Snapshots != 1 || ws.LastSnapshot != uint64(len(steps)) {
		t.Errorf("stats after retry = %+v, want one snapshot at index %d", ws, len(steps))
	}
}

// TestReplayFaultPanic covers the recovery-side crash point: a panic in
// the middle of WAL replay (the injected stand-in for dying during
// recovery) must leave the directory recoverable — the next open replays
// the same suffix to the same bytes.
func TestReplayFaultPanic(t *testing.T) {
	steps := durabilityScript()
	dir := t.TempDir()
	srv := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	runScript(t, srv, steps)
	want := storeBytes(t, srv)
	srv.Crash()

	deactivate := faultinject.Activate(faultinject.Plan{Site: faultinject.SiteWALReplay, N: 3, Panic: true})
	func() {
		defer deactivate()
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("recovery with an injected replay panic: want panic")
			}
			if !strings.Contains(fmt.Sprint(v), "injected panic at oplog/replay") {
				t.Fatalf("unexpected panic payload: %v", v)
			}
		}()
		_, _ = NewDurable(Config{DataDir: dir, FsyncInterval: -1, SnapshotEvery: -1})
	}()

	rec := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	if got := storeBytes(t, rec); !bytes.Equal(got, want) {
		t.Errorf("recovery after replay crash differs:\n got %s\nwant %s", got, want)
	}
	rec.Crash()
}

// TestDegradedReadOnly pins the failure-mode contract at the HTTP
// boundary: after a WAL write fails, every mutation answers 503 with a
// Retry-After header — including after the injected fault is gone,
// because the failure latches — while reads keep serving and the
// degradation is visible in /metrics.
func TestDegradedReadOnly(t *testing.T) {
	srv := mustDurable(t, t.TempDir(), Config{FsyncInterval: -1, SnapshotEvery: -1})
	w := do(t, srv, "POST", "/v1/sessions", `{"tasks":[{"name":"a","wcet":1,"period":4}],"speeds":[1]}`)
	if w.Code != 201 {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Durability"); got != "wal" {
		t.Errorf("X-Durability = %q, want %q", got, "wal")
	}
	if !strings.Contains(w.Body.String(), `"durability":"wal"`) {
		t.Errorf("create response lacks durability field: %s", w.Body)
	}

	deactivate := faultinject.Activate(faultinject.Plan{Site: faultinject.SiteWALAppend, N: 2, Err: errInjectedDisk})
	w = do(t, srv, "POST", "/v1/sessions/s-1/tasks", `{"task":{"name":"b","wcet":1,"period":50}}`)
	deactivate()
	if w.Code != 503 {
		t.Fatalf("mutation with failed WAL: %d, want 503 (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want %q", got, "30")
	}

	// The fault plan is gone, but the WAL failure latched: still 503.
	w = do(t, srv, "POST", "/v1/sessions/s-1/tasks", `{"task":{"name":"c","wcet":1,"period":60}}`)
	if w.Code != 503 {
		t.Errorf("mutation after latch: %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After after latch = %q, want %q", got, "30")
	}

	// Reads keep working, and the rejected admission changed nothing.
	w = do(t, srv, "GET", "/v1/sessions/s-1", "")
	if w.Code != 200 {
		t.Errorf("read in degraded mode: %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"tasks":[{"name":"a"`) || strings.Contains(w.Body.String(), `"name":"b"`) {
		t.Errorf("degraded store mutated: %s", w.Body)
	}

	w = do(t, srv, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "partfeas_wal_degraded 1") {
		t.Errorf("metrics do not report degradation:\n%s", w.Body)
	}
}

// TestDurabilityReporting pins the opt-out side: a server without a data
// directory answers mutations with durability "none" in both the header
// and the body, and exports no partfeas_wal_* metrics.
func TestDurabilityReporting(t *testing.T) {
	srv := newTestServer(t)
	w := do(t, srv, "POST", "/v1/sessions", `{"tasks":[{"name":"a","wcet":1,"period":4}],"speeds":[1]}`)
	if w.Code != 201 {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Durability"); got != "none" {
		t.Errorf("X-Durability = %q, want %q", got, "none")
	}
	if !strings.Contains(w.Body.String(), `"durability":"none"`) {
		t.Errorf("create response lacks durability field: %s", w.Body)
	}
	w = do(t, srv, "GET", "/metrics", "")
	if strings.Contains(w.Body.String(), "partfeas_wal_") {
		t.Errorf("non-durable server exports WAL metrics:\n%s", w.Body)
	}
}

// TestDrainReplaysZero is the clean-shutdown satellite in isolation: a
// SIGTERM-style drain (Shutdown flushes the group-commit buffer and
// writes a final snapshot) leaves a directory whose next open replays
// zero WAL records.
func TestDrainReplaysZero(t *testing.T) {
	dir := t.TempDir()
	srv := mustDurable(t, dir, Config{})
	runScript(t, srv, durabilityScript()[:5])
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rec := mustDurable(t, dir, Config{})
	if rec.dur.replayed != 0 {
		t.Errorf("replayed %d op(s) after clean drain, want 0", rec.dur.replayed)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// BenchmarkRecovery measures a cold open of a data directory whose
// whole history lives in the WAL (snapshots disabled), i.e. the
// worst-case replay path: every op re-runs through the live engine.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	srv := mustDurable(b, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	runScript(b, srv, durabilityScript())
	srv.Crash() // no final snapshot: force a full replay per open
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := NewDurable(Config{DataDir: dir, FsyncInterval: -1, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		rec.Crash() // leave the WAL untouched for the next iteration
	}
}

// TestReplayLegacyConstrainedRemove replays a WAL, written record by
// record, that holds two removes a constrained first_fit_sorted engine
// refuses: dropping task t1 from {t0, t1, t2, t3, t4} on speeds [1, 1]
// leaves a set dbf.FirstFit cannot place, though the full set places.
// The first record has Force false, as binaries that rolled such a
// remove back wrote it: it must replay as that rollback, so the WCET
// update on index 2 after it reaches t2, as it did live (had the remove
// committed, index 2 would name t3, whose deadline 1 refuses WCET 7).
// The second has Force true, as every live DELETE now logs it, and must
// commit into dbf.FirstFit's failure state. An implicit session's remove
// without Force, which those binaries committed even when the engine
// refused it (here: past a forced hog's failure position), must still
// commit. A live DELETE after recovery must log Force true.
func TestReplayLegacyConstrainedRemove(t *testing.T) {
	dir := t.TempDir()
	w, err := oplog.Open(dir, oplog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	create := &oplog.Op{
		Type: oplog.TypeCreate, Session: "s-1", Alpha: 1, Scheduler: "EDF",
		Placement: "first_fit_sorted", DeadlineModel: "constrained",
		Machines: []oplog.Machine{{Name: "m0", Speed: 1}, {Name: "m1", Speed: 1}},
		Tasks: []oplog.Task{
			{Name: "t0", WCET: 4, Deadline: 5, Period: 20},
			{Name: "t1", WCET: 1, Deadline: 1, Period: 15},
			{Name: "t2", WCET: 6, Deadline: 14, Period: 15},
			{Name: "t3", WCET: 1, Deadline: 1, Period: 2},
			{Name: "t4", WCET: 2, Deadline: 5, Period: 5},
		},
	}
	implicit := &oplog.Op{
		Type: oplog.TypeCreate, Session: "s-2", Alpha: 1, Scheduler: "EDF", Placement: "first_fit_sorted",
		Machines: []oplog.Machine{{Name: "m0", Speed: 1}},
		Tasks:    []oplog.Task{{Name: "a", WCET: 1, Period: 10}, {Name: "b", WCET: 2, Period: 10}},
	}
	for _, op := range []*oplog.Op{
		create,
		{Type: oplog.TypeRemove, Session: "s-1", Target: 1},
		{Type: oplog.TypeUpdateWCET, Session: "s-1", Target: 2, WCET: 7},
		{Type: oplog.TypeRemove, Session: "s-1", Target: 1, Force: true},
		implicit,
		{Type: oplog.TypeAdmit, Session: "s-2", Force: true, Tasks: []oplog.Task{{Name: "hog", WCET: 30, Period: 10}}},
		{Type: oplog.TypeRemove, Session: "s-2", Target: 0},
	} {
		if _, err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv := mustDurable(t, dir, Config{SnapshotEvery: -1})
	g := do(t, srv, http.MethodGet, "/v1/sessions/s-1", "")
	var st SessionResponse
	if err := json.Unmarshal(g.Body.Bytes(), &st); err != nil || g.Code != http.StatusOK {
		t.Fatalf("get: %d %s", g.Code, g.Body)
	}
	var names []string
	for _, tk := range st.Tasks {
		names = append(names, fmt.Sprintf("%s:%d", tk.Name, tk.WCET))
	}
	if got, want := strings.Join(names, " "), "t0:4 t2:7 t3:1 t4:2"; got != want {
		t.Fatalf("replayed tasks %s, want %s (the unforced remove rolled back, the update reached t2, the forced remove committed)", got, want)
	}
	if tr := st.Test; tr.Accepted || tr.FailedTask != 3 || fmt.Sprint(tr.Assignment) != "[1 0 0 -1]" {
		t.Fatalf("replayed test block %+v, want dbf.FirstFit's failure state: assignment [1 0 0 -1], failed task 3", tr)
	}
	g = do(t, srv, http.MethodGet, "/v1/sessions/s-2", "")
	if err := json.Unmarshal(g.Body.Bytes(), &st); err != nil || g.Code != http.StatusOK {
		t.Fatalf("get implicit: %d %s", g.Code, g.Body)
	}
	if len(st.Tasks) != 2 || st.Tasks[0].Name != "b" || st.Tasks[1].Name != "hog" {
		t.Fatalf("replayed implicit tasks %+v, want [b hog]: an implicit remove commits without Force", st.Tasks)
	}

	if d := do(t, srv, http.MethodDelete, "/v1/sessions/s-1/tasks/0", ""); d.Code != http.StatusOK {
		t.Fatalf("live remove: %d %s", d.Code, d.Body)
	}
	srv.Crash()
	w, err = oplog.Open(dir, oplog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var last oplog.Op
	if err := w.Replay(1, func(op *oplog.Op) error { last = *op; return nil }); err != nil {
		t.Fatal(err)
	}
	if last.Type != oplog.TypeRemove || last.Target != 0 || !last.Force {
		t.Fatalf("live remove logged %+v, want a forced remove of task 0", last)
	}
}

// TestReplayForcedRefusalDisarmError covers a forced op a local-policy
// constrained session refuses when its sorted rebuild cannot be
// analysed. first_fit_arrival places W and X on m0 and Y alone on m1,
// never testing X beside Y; the sorted rebuild over the forced set
// packs Y first and then tests X beside it, where U = 1 − 1e-8 puts the
// La horizon past 2^62 (ErrHorizonTooLarge). Each op answers 400, leaves
// the session as it was, replays as the same no-op after a crash, and
// the session snapshots and restores.
func TestReplayForcedRefusalDisarmError(t *testing.T) {
	dir := t.TempDir()
	srv := mustDurable(t, dir, Config{SnapshotEvery: -1})
	w := do(t, srv, http.MethodPost, "/v1/sessions",
		`{"tasks":[{"name":"W","wcet":1,"period":2},`+
			`{"name":"Y","wcet":824633709837,"period":1099511627776,"deadline":824633709837},`+
			`{"name":"X","wcet":1,"period":4}],`+
			`"speeds":[1,1],"deadline_model":"constrained","placement":"first_fit_arrival"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + st.ID
	before := do(t, srv, http.MethodGet, base, "").Body.String()

	for _, op := range []struct{ method, path, body string }{
		{http.MethodPost, base + "/tasks", `{"task":{"name":"Z","wcet":2,"period":5},"force":true}`},
		{http.MethodPost, base + "/wcet", `{"index":0,"wcet":2,"force":true}`},
	} {
		if r := do(t, srv, op.method, op.path, op.body); r.Code != http.StatusBadRequest || !strings.Contains(r.Body.String(), "horizon") {
			t.Fatalf("%s %s: %d %s, want 400 naming the horizon", op.method, op.path, r.Code, r.Body)
		}
		if g := do(t, srv, http.MethodGet, base, ""); g.Code != http.StatusOK || g.Body.String() != before {
			t.Fatalf("after %s %s: %d %s, want the session unchanged:\n%s", op.method, op.path, g.Code, g.Body, before)
		}
	}
	srv.Crash()
	srv = mustDurable(t, dir, Config{SnapshotEvery: -1})
	if g := do(t, srv, http.MethodGet, base, ""); g.Code != http.StatusOK || g.Body.String() != before {
		t.Fatalf("recovered: %d %s, want\n%s", g.Code, g.Body, before)
	}
	if err := srv.Close(); err != nil { // drains to a snapshot
		t.Fatal(err)
	}
	srv = mustDurable(t, dir, Config{SnapshotEvery: -1})
	defer srv.Close()
	if g := do(t, srv, http.MethodGet, base, ""); g.Code != http.StatusOK || g.Body.String() != before {
		t.Fatalf("restored from snapshot: %d %s, want\n%s", g.Code, g.Body, before)
	}
}
