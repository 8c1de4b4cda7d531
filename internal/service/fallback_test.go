package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"partfeas"
	"partfeas/internal/online"
)

// TestInfeasibleFallback pins the batch-Tester fallback that serves a
// session while its resident set is force-committed infeasible (engine
// disarmed): single admits (forced and rejected), both batch modes, a
// best-effort batch that regains feasibility partway through, removes,
// WCET raises and lowers, GET and an ad-hoc-alpha /test. Every mutation's
// test block must be the summary of a fresh library solve of the set it
// describes, with machine (machines) that solve's entry for the op's
// task(s); after every step a GET's full test block must equal a fresh
// solve of the resident set (while disarmed) or a fresh engine over it
// (once re-armed), so the assignment is checked at each step. The engine
// must re-arm exactly when feasibility returns (repartition answers 200
// instead of 409).
func TestInfeasibleFallback(t *testing.T) {
	for _, placement := range []string{"first_fit_sorted", "best_fit"} {
		t.Run(placement, func(t *testing.T) {
			s := newTestServer(t)
			speeds := []float64{1, 2}
			set := partfeas.TaskSet{{WCET: 30, Period: 100}, {WCET: 40, Period: 100}, {WCET: 50, Period: 100}}
			w := do(t, s, http.MethodPost, "/v1/sessions", fmt.Sprintf(
				`{"tasks":[{"wcet":30,"period":100},{"wcet":40,"period":100},{"wcet":50,"period":100}],"speeds":[1,2],"scheduler":"edf","placement":%q}`, placement))
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
			adm, _ := partfeas.EDF.Admission()
			opts := online.Options{Policy: pol, Admission: adm}

			fresh := func(ts partfeas.TaskSet, alpha float64) TestResponse {
				t.Helper()
				rep, err := partfeas.Test(ts, partfeas.NewPlatform(speeds...), partfeas.EDF, alpha)
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
				return TestResponseFrom(partfeas.Report{Accepted: true, Scheduler: partfeas.EDF, Alpha: 1, Partition: eng.Result()})
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

			// WCET lower on the hog restores feasibility and re-arms.
			set[3].WCET = 50
			ar = mutate("wcet lower", "/wcet", `{"index":3,"wcet":50}`)
			admission("wcet lower", ar, true, len(set), fresh(set, 1), 3)
			armed("wcet lower", true)
			state("wcet lower", rearmed(set))

			// Force the hog again, then remove it: the remove re-arms.
			ar = mutate("force hog again", "/tasks", `{"task":{"wcet":300,"period":100},"force":true}`)
			witness("force hog again", ar, append(set.Clone(), hog))
			armed("force hog again", false)
			ar = remove("remove hog", 4)
			admission("remove hog", ar, true, len(set), fresh(set, 1), -1)
			armed("remove hog", true)
			state("remove hog", rearmed(set))

			// A disarmed session whose set is feasible again (as a snapshot
			// taken while disarmed restores it) regains the engine partway
			// through a best-effort batch: the hog is rejected by the batch
			// test, the next task re-arms the engine, the rest continue on it.
			sess, err := s.sessions.get(created.ID)
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			sess.eng = nil
			sess.mu.Unlock()
			armed("disarm", false)
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
			wantTest := TestResponseFrom(partfeas.Report{Accepted: true, Scheduler: partfeas.EDF, Alpha: 1, Partition: res})
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

// TestDisarmedInvalidWCET pins the disarmed session's input check: a
// WCET the task model forbids answers 400 naming the task, forced or
// not, before the fallback's batch test runs, never a 500 from it.
func TestDisarmedInvalidWCET(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/sessions", `{"tasks":[{"wcet":30,"period":100}],"speeds":[1,2],"scheduler":"edf"}`)
	var created SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	base := "/v1/sessions/" + created.ID
	if w := do(t, s, http.MethodPost, base+"/tasks", `{"task":{"wcet":300,"period":100},"force":true}`); w.Code != http.StatusOK {
		t.Fatalf("force hog: %d %s", w.Code, w.Body)
	}
	for _, body := range []string{`{"index":0,"wcet":0}`, `{"index":0,"wcet":-5,"force":true}`} {
		w := do(t, s, http.MethodPost, base+"/wcet", body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "partfeas: invalid task set: task 0") {
			t.Errorf("wcet %s: %d %s, want 400 naming task 0", body, w.Code, w.Body)
		}
	}
}
