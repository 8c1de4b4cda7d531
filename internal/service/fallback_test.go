package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"partfeas"
	"partfeas/internal/online"
)

// TestInfeasibleFallback pins how a session serves a force-committed
// infeasible resident set (session disarmed, on a first_fit_sorted
// engine in the paper's failure state): single admits (forced and
// rejected), both batch modes, a best-effort batch that regains
// feasibility partway through, removes, WCET raises and lowers, GET and
// an ad-hoc-alpha /test. Every mutation's test block must be the summary
// of a fresh library solve of the set it describes, with machine
// (machines) that solve's entry for the op's task(s); after every step a
// GET's full test block must equal a fresh solve of the resident set
// (while disarmed) or a fresh engine over it (once re-armed), so the
// assignment is checked at each step. The engine must re-arm exactly
// when feasibility returns (repartition answers 200 instead of 409).
func TestInfeasibleFallback(t *testing.T) {
	for _, c := range []struct{ name, placement, scheduler string }{
		{"first_fit_sorted", "first_fit_sorted", "edf"},
		{"best_fit", "best_fit", "edf"},
		{"first_fit_arrival", "first_fit_arrival", "edf"},
		{"first_fit_sorted_rms", "first_fit_sorted", "rms"},
	} {
		placement := c.placement
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t)
			speeds := []float64{1, 2}
			sched := partfeas.EDF
			if c.scheduler == "rms" {
				sched = partfeas.RMS
			}
			set := partfeas.TaskSet{{WCET: 30, Period: 100}, {WCET: 40, Period: 100}, {WCET: 50, Period: 100}}
			w := do(t, s, http.MethodPost, "/v1/sessions", fmt.Sprintf(
				`{"tasks":[{"wcet":30,"period":100},{"wcet":40,"period":100},{"wcet":50,"period":100}],"speeds":[1,2],"scheduler":%q,"placement":%q}`, c.scheduler, placement))
			if w.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", w.Code, w.Body)
			}
			var created SessionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			base := "/v1/sessions/" + created.ID
			hog := partfeas.Task{WCET: 300, Period: 100} // utilization 3: no machine takes it
			pol, err := online.ParsePolicy(placement)
			if err != nil {
				t.Fatal(err)
			}
			adm, _ := sched.Admission()
			opts := online.Options{Policy: pol, Admission: adm}

			fresh := func(ts partfeas.TaskSet, alpha float64) TestResponse {
				t.Helper()
				rep, err := partfeas.Test(ts, partfeas.NewPlatform(speeds...), sched, alpha)
				if err != nil {
					t.Fatal(err)
				}
				return TestResponseFrom(rep)
			}
			// rearmed is the state of an engine freshly built over ts, as
			// the session's engine is when it re-arms.
			rearmed := func(ts partfeas.TaskSet) TestResponse {
				t.Helper()
				eng, err := online.NewEngine(ts, partfeas.NewPlatform(speeds...), opts)
				if err != nil {
					t.Fatal(err)
				}
				return TestResponseFrom(partfeas.Report{Accepted: true, Scheduler: sched, Alpha: 1, Partition: eng.Result()})
			}
			armed := func(step string, wantArmed bool) {
				t.Helper()
				code := do(t, s, http.MethodPost, base+"/repartition", `{}`).Code
				if wantCode := map[bool]int{true: http.StatusOK, false: http.StatusConflict}[wantArmed]; code != wantCode {
					t.Fatalf("%s: repartition answered %d, want %d", step, code, wantCode)
				}
			}
			// state byte-compares a GET's full test block with want.
			state := func(step string, want TestResponse) {
				t.Helper()
				var st SessionResponse
				if w := do(t, s, http.MethodGet, base, ""); w.Code != http.StatusOK {
					t.Fatalf("%s: get: %d %s", step, w.Code, w.Body)
				} else if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if len(st.Tasks) != len(set) {
					t.Fatalf("%s: get lists %d tasks, want %d", step, len(st.Tasks), len(set))
				}
				if got, want := encode(t, st.Test), encode(t, want); got != want {
					t.Fatalf("%s: get test block\n got %s\nwant %s", step, got, want)
				}
			}
			post := func(step, path, body string, out any) {
				t.Helper()
				w := do(t, s, http.MethodPost, base+path, body)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", step, w.Code, w.Body)
				}
				if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
					t.Fatal(err)
				}
			}
			// mutate posts an admit or a WCET update and decodes its answer
			// into a fresh value, so no field of an earlier answer survives.
			mutate := func(step, path, body string) AdmissionResponse {
				t.Helper()
				var ar AdmissionResponse
				post(step, path, body, &ar)
				return ar
			}
			// remove deletes task idx and decodes the answer likewise.
			remove := func(step string, idx int) AdmissionResponse {
				t.Helper()
				w := do(t, s, http.MethodDelete, fmt.Sprintf("%s/tasks/%d", base, idx), "")
				var ar AdmissionResponse
				if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", step, w.Code, w.Body)
				}
				return ar
			}
			// admission checks the verdict and, against full (the fresh
			// solve of the set the block describes), the summary and the
			// machine of task (task < 0: a remove, which names none).
			admission := func(step string, w AdmissionResponse, admitted bool, nTasks int, full TestResponse, task int) {
				t.Helper()
				if w.Admitted != admitted || w.NTasks != nTasks || w.RolledBack != (task >= 0 && !admitted) {
					t.Fatalf("%s: admitted=%v rolled_back=%v n_tasks=%d, want admitted=%v n_tasks=%d",
						step, w.Admitted, w.RolledBack, w.NTasks, admitted, nTasks)
				}
				checkSummary(t, step, w.Test, full)
				checkMachine(t, step, w.Machine, full, task)
			}
			// witness checks an armed engine's refusal of a forced hog: the
			// hog is left unplaced, and a sorted engine's witness is the
			// fresh solve's.
			witness := func(step string, w AdmissionResponse, tentative partfeas.TaskSet) {
				t.Helper()
				if !w.Admitted || w.RolledBack || w.NTasks != len(tentative) || w.Test.Accepted ||
					w.Machine == nil || *w.Machine != -1 || w.Test.FailedTask != len(tentative)-1 {
					t.Fatalf("%s: %+v (machine %v)", step, w, w.Machine)
				}
				if placement == "first_fit_sorted" {
					checkSummary(t, step, w.Test, fresh(tentative, 1))
				}
			}
			var ar AdmissionResponse

			// Force the hog in: the engine refuses, the commit disarms it.
			ar = mutate("force hog", "/tasks", `{"task":{"wcet":300,"period":100},"force":true}`)
			set = append(set, hog)
			witness("force hog", ar, set)
			armed("force hog", false)
			state("force hog", fresh(set, 1))

			// Forced admit on the fallback: committed, still infeasible.
			ar = mutate("forced admit", "/tasks", `{"task":{"wcet":10,"period":100},"force":true}`)
			set = append(set, partfeas.Task{WCET: 10, Period: 100})
			admission("forced admit", ar, true, len(set), fresh(set, 1), len(set)-1)
			state("forced admit", fresh(set, 1))

			// Plain admit on the fallback: rejected and rolled back.
			ar = mutate("rejected admit", "/tasks", `{"task":{"wcet":10,"period":100}}`)
			admission("rejected admit", ar, false, len(set), fresh(append(set.Clone(), partfeas.Task{WCET: 10, Period: 100}), 1), len(set))
			state("rejected admit", fresh(set, 1))

			// All-or-nothing batch: one union test rejects the whole batch.
			var br BatchAdmissionResponse
			post("aon batch", "/admit-batch", `{"tasks":[{"wcet":5,"period":100},{"wcet":6,"period":100}],"mode":"all_or_nothing"}`, &br)
			if br.NAdmitted != 0 || br.NTasks != len(set) || fmt.Sprint(br.Admitted) != "[false false]" || fmt.Sprint(br.Machines) != "[-1 -1]" {
				t.Fatalf("aon batch: %+v", br)
			}
			checkSummary(t, "aon batch", br.Test, fresh(append(set.Clone(), partfeas.Task{WCET: 5, Period: 100}, partfeas.Task{WCET: 6, Period: 100}), 1))
			armed("aon batch", false)
			state("aon batch", fresh(set, 1))

			// WCET raise: rejected and rolled back.
			raised := set.Clone()
			raised[0].WCET = 60
			ar = mutate("wcet raise", "/wcet", `{"index":0,"wcet":60}`)
			admission("wcet raise", ar, false, len(set), fresh(raised, 1), 0)
			state("wcet raise", fresh(set, 1))

			// An ad-hoc alpha answers from the batch test.
			var tr TestResponse
			post("ad-hoc test", "/test", `{"alpha":4}`, &tr)
			if got, want := encode(t, tr), encode(t, fresh(set, 4)); got != want {
				t.Fatalf("ad-hoc test: %s, want %s", got, want)
			}

			// Remove the forced small task: committed, still infeasible.
			ar = remove("remove", 4)
			set = set[:4]
			admission("remove", ar, false, len(set), fresh(set, 1), -1)
			armed("remove", false)
			state("remove", fresh(set, 1))

			// WCET lower on the hog restores feasibility and re-arms; the
			// answer is the re-armed engine's state, the one it keeps.
			set[3].WCET = 50
			ar = mutate("wcet lower", "/wcet", `{"index":3,"wcet":50}`)
			admission("wcet lower", ar, true, len(set), rearmed(set), 3)
			armed("wcet lower", true)
			state("wcet lower", rearmed(set))

			// Force the hog again, then remove it: the remove re-arms.
			ar = mutate("force hog again", "/tasks", `{"task":{"wcet":300,"period":100},"force":true}`)
			witness("force hog again", ar, append(set.Clone(), hog))
			armed("force hog again", false)
			ar = remove("remove hog", 4)
			admission("remove hog", ar, true, len(set), rearmed(set), -1)
			armed("remove hog", true)
			state("remove hog", rearmed(set))

			// A disarmed session whose set is feasible again (a snapshot
			// record taken while disarmed, restored) regains the engine
			// partway through a best-effort batch: the hog is rejected by the
			// sorted engine, the next task re-arms the policy engine, the
			// rest continue on it. A first_fit_sorted session restored
			// feasible is armed at once and runs the whole batch itself.
			sess, err := s.sessions.get(created.ID)
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			ss := snapOf(sess)
			sess.mu.Unlock()
			ss.Engine, ss.Placed, ss.RepartCnt = false, nil, 0
			restored, err := s.sessions.restoreSession(&ss)
			if err != nil {
				t.Fatal(err)
			}
			s.sessions.mu.Lock()
			s.sessions.m[created.ID] = restored
			s.sessions.mu.Unlock()
			armed("restore disarmed", placement == "first_fit_sorted")
			a, b := partfeas.Task{WCET: 7, Period: 100}, partfeas.Task{WCET: 8, Period: 100}
			post("regain batch", "/admit-batch", `{"tasks":[{"wcet":300,"period":100},{"wcet":7,"period":100},{"wcet":8,"period":100}]}`, &br)
			if br.NAdmitted != 2 || br.NTasks != len(set)+2 || fmt.Sprint(br.Admitted) != "[false true true]" {
				t.Fatalf("regain batch: %+v", br)
			}
			eng, err := online.NewEngine(append(set.Clone(), a), partfeas.NewPlatform(speeds...), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := eng.AdmitBatch([]partfeas.Task{b}, online.BestEffort)
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, a, b)
			wantTest := TestResponseFrom(partfeas.Report{Accepted: true, Scheduler: sched, Alpha: 1, Partition: res})
			if placement == "first_fit_sorted" && encode(t, wantTest) != encode(t, fresh(set, 1)) {
				t.Fatalf("sorted engine diverged from a fresh solve: %s", encode(t, wantTest))
			}
			checkSummary(t, "regain batch", br.Test, wantTest)
			if want := fmt.Sprint([]int{-1, wantTest.Assignment[len(set)-2], wantTest.Assignment[len(set)-1]}); fmt.Sprint(br.Machines) != want {
				t.Fatalf("regain batch: machines %v, want %s", br.Machines, want)
			}
			armed("regain batch", true)
			state("regain batch", wantTest)
		})
	}
}

// TestInvalidWCETLeavesNoRecord pins the WCET update's input check on
// armed, disarmed and constrained durable sessions: a WCET the task
// model forbids answers 400 naming the task, forced or not, with one
// message whatever the session's state, and is refused before the op
// reaches the WAL.
func TestInvalidWCETLeavesNoRecord(t *testing.T) {
	for _, c := range []struct {
		name, create string
		force        bool // force-admit a hog first, disarming the session
		bodies       map[string]string
	}{
		{"armed", `{"tasks":[{"wcet":30,"period":100}],"speeds":[1,2],"scheduler":"edf"}`, false, map[string]string{
			`{"index":0,"wcet":0}`:  "task 0: wcet 0 must be positive",
			`{"index":0,"wcet":-5}`: "task 0: wcet -5 must be positive",
		}},
		{"disarmed", `{"tasks":[{"wcet":30,"period":100}],"speeds":[1,2],"scheduler":"edf","placement":"best_fit"}`, true, map[string]string{
			`{"index":0,"wcet":0}`:               "task 0: wcet 0 must be positive",
			`{"index":0,"wcet":-5,"force":true}`: "task 0: wcet -5 must be positive",
		}},
		{"constrained", `{"tasks":[{"wcet":30,"period":100,"deadline":60}],"speeds":[1,2],"scheduler":"edf","deadline_model":"constrained"}`, false, map[string]string{
			`{"index":0,"wcet":0}`:  "task 0: wcet 0 must be positive",
			`{"index":0,"wcet":61}`: "task 0: wcet 61 exceeds its deadline 60",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mustDurable(t, t.TempDir(), Config{FsyncInterval: -1, SnapshotEvery: -1})
			w := do(t, s, http.MethodPost, "/v1/sessions", c.create)
			var created SessionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", w.Code, w.Body)
			}
			base := "/v1/sessions/" + created.ID
			if c.force {
				if w := do(t, s, http.MethodPost, base+"/tasks", `{"task":{"wcet":300,"period":100},"force":true}`); w.Code != http.StatusOK {
					t.Fatalf("force hog: %d %s", w.Code, w.Body)
				}
			}
			appends := s.dur.wal.Stats().Appends
			for body, msg := range c.bodies {
				w := do(t, s, http.MethodPost, base+"/wcet", body)
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `{"error":"`+msg+`"}`) {
					t.Errorf("wcet %s: %d %s, want 400 %q", body, w.Code, w.Body, msg)
				}
			}
			if got := s.dur.wal.Stats().Appends; got != appends {
				t.Errorf("refused WCET updates moved WAL appends %d → %d", appends, got)
			}
		})
	}
}

// TestLocalForcedRefusalStaysDisarmed pins the re-arm timing of a
// local-policy session. Its first_fit_arrival engine refuses a forced
// task that the sorted test accepts, and the session stays disarmed on
// its sorted engine anyway: GET answers the sorted solve, repartition
// 409. A rejected admit commits nothing and does not re-arm it; the next
// committed op whose sorted result is feasible does.
func TestLocalForcedRefusalStaysDisarmed(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/sessions",
		`{"tasks":[{"wcet":25,"period":100},{"wcet":25,"period":100},{"wcet":75,"period":100}],"speeds":[1,1],"scheduler":"edf","placement":"first_fit_arrival"}`)
	var created SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	base := "/v1/sessions/" + created.ID
	set := partfeas.TaskSet{{WCET: 25, Period: 100}, {WCET: 25, Period: 100}, {WCET: 75, Period: 100}}
	armed := func(step string, want bool) {
		t.Helper()
		code := do(t, s, http.MethodPost, base+"/repartition", `{}`).Code
		if wantCode := map[bool]int{true: http.StatusOK, false: http.StatusConflict}[want]; code != wantCode {
			t.Fatalf("%s: repartition answered %d, want %d", step, code, wantCode)
		}
	}
	sorted := func(step string) {
		t.Helper()
		rep, err := partfeas.Test(set, partfeas.NewPlatform(1, 1), partfeas.EDF, 1)
		if err != nil {
			t.Fatal(err)
		}
		var st SessionResponse
		if w := do(t, s, http.MethodGet, base, ""); json.Unmarshal(w.Body.Bytes(), &st) != nil || w.Code != http.StatusOK {
			t.Fatalf("%s: get: %d %s", step, w.Code, w.Body)
		}
		if got, want := encode(t, st.Test), encode(t, TestResponseFrom(rep)); got != want {
			t.Fatalf("%s: get test block\n got %s\nwant %s", step, got, want)
		}
	}
	armed("create", true)

	// Arrival order fills machine 0 with 0.25 + 0.25 and machine 1 with
	// 0.75, so a second 0.75 fits nowhere; sorted order pairs each 0.75
	// with a 0.25.
	var ar AdmissionResponse
	w = do(t, s, http.MethodPost, base+"/tasks", `{"task":{"wcet":75,"period":100},"force":true}`)
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK || !ar.Admitted || ar.Test.Accepted {
		t.Fatalf("forced admit: %d %s", w.Code, w.Body)
	}
	set = append(set, partfeas.Task{WCET: 75, Period: 100})
	armed("forced admit", false)
	sorted("forced admit")

	if w := do(t, s, http.MethodPost, base+"/tasks", `{"task":{"wcet":50,"period":100}}`); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"rolled_back":true`) {
		t.Fatalf("rejected admit: %d %s", w.Code, w.Body)
	}
	armed("rejected admit", false)
	sorted("rejected admit")

	if w := do(t, s, http.MethodDelete, base+"/tasks/0", ""); w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	armed("remove", true)
}

// TestDisarmedDurableRoundTrip restores a disarmed best_fit session from
// its snapshot and from its WAL: both copies encode to the source's
// bytes, which record no engine placement.
func TestDisarmedDurableRoundTrip(t *testing.T) {
	for _, variant := range []string{"drain", "crash"} {
		t.Run(variant, func(t *testing.T) {
			dir := t.TempDir()
			srv := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
			w := do(t, srv, http.MethodPost, "/v1/sessions",
				`{"tasks":[{"wcet":30,"period":100},{"wcet":40,"period":100}],"speeds":[1,2],"scheduler":"edf","placement":"best_fit"}`)
			var created SessionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", w.Code, w.Body)
			}
			base := "/v1/sessions/" + created.ID
			for _, body := range []string{
				`{"task":{"wcet":300,"period":100},"force":true}`,
				`{"task":{"wcet":20,"period":100},"force":true}`,
			} {
				if w := do(t, srv, http.MethodPost, base+"/tasks", body); w.Code != http.StatusOK {
					t.Fatalf("admit %s: %d %s", body, w.Code, w.Body)
				}
			}
			want := sessionBytes(t, srv, created.ID)
			if !bytes.Contains(want, []byte(`"engine":false`)) || bytes.Contains(want, []byte(`"placed"`)) {
				t.Fatalf("disarmed session encodes as %s", want)
			}
			if variant == "drain" {
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				srv.Crash()
			}
			rec := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
			if got := sessionBytes(t, rec, created.ID); !bytes.Equal(got, want) {
				t.Fatalf("restored session\n got %s\nwant %s", got, want)
			}
			rec.Crash()
		})
	}
}
