package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"partfeas"
)

// TestSessionAdmitBatchEndpoint drives POST /v1/sessions/{id}/admit-batch
// end to end: a fitting best-effort batch admits everything in one call,
// a mixed batch admits exactly the sequentially-admissible subset, and
// an all-or-nothing batch with a hog leaves the session untouched.
func TestSessionAdmitBatchEndpoint(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "sorted")

	w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":50},{"wcet":2,"period":60},{"wcet":3,"period":70}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var resp BatchAdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "best_effort" || resp.NAdmitted != 3 || resp.NTasks != 7 {
		t.Fatalf("batch response: %s", w.Body)
	}
	for i, ok := range resp.Admitted {
		if !ok {
			t.Fatalf("task %d rejected: %s", i, w.Body)
		}
	}
	if !resp.Test.Accepted {
		t.Fatalf("post-batch state rejected: %s", w.Body)
	}

	// The session's verdict list must match admitting the same batch
	// sequentially into an identical twin session.
	mixed := `{"tasks":[{"wcet":1,"period":90},{"wcet":700,"period":100},{"wcet":2,"period":80}]}`
	twin := stressSession(t, s, "sorted")
	for _, tk := range []string{`{"wcet":1,"period":50}`, `{"wcet":2,"period":60}`, `{"wcet":3,"period":70}`} {
		if w := do(t, s, http.MethodPost, "/v1/sessions/"+twin+"/tasks", `{"task":`+tk+`}`); w.Code != http.StatusOK {
			t.Fatalf("twin seed: %d %s", w.Code, w.Body)
		}
	}
	w = do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch", mixed)
	if w.Code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var seq []bool
	for _, tk := range []string{`{"wcet":1,"period":90}`, `{"wcet":700,"period":100}`, `{"wcet":2,"period":80}`} {
		w := do(t, s, http.MethodPost, "/v1/sessions/"+twin+"/tasks", `{"task":`+tk+`}`)
		if w.Code != http.StatusOK {
			t.Fatalf("twin admit: %d %s", w.Code, w.Body)
		}
		var ar AdmissionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ar.Admitted)
	}
	for i := range seq {
		if resp.Admitted[i] != seq[i] {
			t.Fatalf("verdicts diverged from sequential: batch %v, sequential %v", resp.Admitted, seq)
		}
	}
	// Both sessions hold the same multiset now; their states must agree.
	a := do(t, s, http.MethodGet, "/v1/sessions/"+id, "")
	b := do(t, s, http.MethodGet, "/v1/sessions/"+twin, "")
	var as, bs SessionResponse
	if err := json.Unmarshal(a.Body.Bytes(), &as); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &bs); err != nil {
		t.Fatal(err)
	}
	if encode(t, as.Test) != encode(t, bs.Test) {
		t.Fatalf("batch and sequential sessions diverged:\n%s\n%s", encode(t, as.Test), encode(t, bs.Test))
	}

	// All-or-nothing with a hog: nothing admitted, session unchanged.
	before := as
	w = do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":1000},{"wcet":900,"period":100}],"mode":"all_or_nothing"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("aon batch: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NAdmitted != 0 || resp.NTasks != len(before.Tasks) {
		t.Fatalf("aon hog batch mutated the session: %s", w.Body)
	}
	if resp.Test.Accepted {
		t.Fatalf("aon witness must be a rejection: %s", w.Body)
	}
	after := do(t, s, http.MethodGet, "/v1/sessions/"+id, "")
	var afterState SessionResponse
	if err := json.Unmarshal(after.Body.Bytes(), &afterState); err != nil {
		t.Fatal(err)
	}
	if encode(t, afterState.Test) != encode(t, before.Test) {
		t.Fatal("session state changed after rejected all-or-nothing batch")
	}
}

// TestDisarmedBatchAnswersState pins a disarmed best-effort batch that
// admits a task and then refuses one: its answer is the session's state
// after the batch, not the refused candidate's witness. The best_fit
// session opens disarmed (best fit cannot place the set, so repartition
// answers 409); 25/100 makes the sorted set feasible but best fit still
// cannot place it, so 95/100 is refused on the sorted engine.
func TestDisarmedBatchAnswersState(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/sessions", `{"placement":"best_fit","speeds":[1,1,1],"tasks":[`+
		`{"wcet":52,"period":100},{"wcet":14,"period":100},{"wcet":69,"period":100},`+
		`{"wcet":60,"period":100},{"wcet":29,"period":100},{"wcet":43,"period":100}]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/s-1/repartition", `{}`); w.Code != http.StatusConflict {
		t.Fatalf("repartition on the disarmed session: %d %s, want 409", w.Code, w.Body)
	}
	w = do(t, s, http.MethodPost, "/v1/sessions/s-1/admit-batch", `{"tasks":[{"wcet":25,"period":100},{"wcet":95,"period":100}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var resp BatchAdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	get := do(t, s, http.MethodGet, "/v1/sessions/s-1", "")
	var state SessionResponse
	if err := json.Unmarshal(get.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if !state.Test.Accepted {
		t.Fatalf("state after the batch is infeasible: %s", get.Body)
	}
	want := []int{entryOf(state.Test, 6), -1}
	if !slices.Equal(resp.Admitted, []bool{true, false}) || !slices.Equal(resp.Machines, want) || want[0] < 0 {
		t.Fatalf("batch admitted %v on machines %v, want [true false] on %v", resp.Admitted, resp.Machines, want)
	}
	checkSummary(t, "disarmed batch", resp.Test, state.Test)
}

// TestRearmAnswersState: a single op that re-arms a disarmed
// local-policy session answers the state the session keeps, its own
// policy's placement, not the sorted engine's it re-armed from. The
// best_fit session opens disarmed (best_fit cannot place the sixth
// task; sorted first-fit can); removing task 2 makes best_fit's
// placement feasible again.
func TestRearmAnswersState(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/sessions", `{"placement":"best_fit","speeds":[1,1,1],"tasks":[`+
		`{"wcet":52,"period":100},{"wcet":14,"period":100},{"wcet":69,"period":100},`+
		`{"wcet":60,"period":100},{"wcet":29,"period":100},{"wcet":43,"period":100}]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	w = do(t, s, http.MethodDelete, "/v1/sessions/s-1/tasks/2", "")
	if w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	get := do(t, s, http.MethodGet, "/v1/sessions/s-1", "")
	var state SessionResponse
	if err := json.Unmarshal(get.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if got, want := state.Test.Assignment, []int{0, 0, 1, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("assignment after the re-arm = %v, want best_fit's %v", got, want)
	}
	if got, want := string(loadsOf(t, w.Body.Bytes())), "[0.95,0.6,0.43]"; got != want {
		t.Fatalf("remove answered loads %s, want %s", got, want)
	}
	if got, want := loadsOf(t, w.Body.Bytes()), loadsOf(t, get.Body.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("remove answered loads %s, next GET %s", got, want)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/s-1/repartition", `{}`); w.Code != http.StatusOK {
		t.Fatalf("repartition on the re-armed session: %d %s, want 200", w.Code, w.Body)
	}
}

// TestSessionAdmitBatchValidation covers the endpoint's guards.
func TestSessionAdmitBatchValidation(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "")
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":0,"period":5}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid task: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":5}],"mode":"sometimes"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad mode: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/s-999/admit-batch",
		`{"tasks":[{"wcet":1,"period":5}]}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", w.Code)
	}
	w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch", `{"tasks":[]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("empty batch: %d %s", w.Code, w.Body)
	}
}

// TestAdmissionMetricsMove asserts the per-path admission counters and
// latency histograms actually record: tail and interior single admits
// and an explicit batch must each move their counter, and the /metrics
// exposition must carry all three paths. Single admits queued behind a
// held session lock each run alone, in lock order: every one answers
// with its own task count and moves the tail/interior counters once.
func TestAdmissionMetricsMove(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "sorted")

	// Tail admit: tiny utilization sorts last.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/tasks",
		`{"task":{"wcet":1,"period":10000}}`); w.Code != http.StatusOK {
		t.Fatalf("tail admit: %d %s", w.Code, w.Body)
	}
	// Interior admit: larger utilization than the residents sorts first.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/tasks",
		`{"task":{"wcet":30,"period":100}}`); w.Code != http.StatusOK {
		t.Fatalf("interior admit: %d %s", w.Code, w.Body)
	}
	// Batch admit.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":300},{"wcet":1,"period":400}]}`); w.Code != http.StatusOK {
		t.Fatalf("batch admit: %d %s", w.Code, w.Body)
	}
	w := do(t, s, http.MethodGet, "/metrics", "")
	out := w.Body.String()
	for _, want := range []string{
		`partfeas_admissions_total{path="tail"} 1`,
		`partfeas_admissions_total{path="interior"} 1`,
		`partfeas_admissions_total{path="batch"} 1`,
		`partfeas_admission_duration_seconds{path="interior",quantile="0.99"}`,
		`partfeas_admission_duration_seconds_count{path="batch"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Queued single admits: hold the session lock until every admit is
	// parked on it, then release.
	sess, err := s.sessions.get(id)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	singles := func() uint64 { return m.admitCnt[PathTail].Load() + m.admitCnt[PathInterior].Load() }
	const queued = 4
	sess.mu.Lock()
	n, before := len(sess.in.Tasks), singles()
	counts := make(chan int, queued)
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := sess.addTask(budget{ctx: context.Background()},
				partfeas.Task{WCET: 1, Period: int64(500 + i)}, 0, false)
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			if !resp.Admitted {
				t.Errorf("queued admit %d rejected", i)
			}
			counts <- resp.NTasks
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for parked := 0; parked < queued; parked = admitsParked() {
		if time.Now().After(deadline) {
			sess.mu.Unlock()
			t.Fatalf("only %d/%d admits parked on the session lock", parked, queued)
		}
		time.Sleep(time.Millisecond)
	}
	sess.mu.Unlock()
	wg.Wait()
	close(counts)
	got := map[int]bool{}
	for c := range counts {
		got[c] = true
	}
	for c := n + 1; c <= n+queued; c++ {
		if !got[c] {
			t.Errorf("no queued admit answered n_tasks = %d; got %v", c, got)
		}
	}
	if moved := singles() - before; moved != queued {
		t.Errorf("tail+interior counters moved by %d, want %d", moved, queued)
	}
}

// admitsParked counts goroutines blocked on a mutex inside
// (*session).addTask.
func admitsParked() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, ").addTask(") {
			n++
		}
	}
	return n
}
