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
// WCET raises and lowers, GET and an ad-hoc-alpha /test. Every answer's
// test block must equal a fresh library solve of the resulting set, and
// the engine must re-arm exactly when feasibility returns (repartition
// answers 200 instead of 409).
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

			want := func(ts partfeas.TaskSet, alpha float64) string {
				t.Helper()
				rep, err := partfeas.Test(ts, partfeas.NewPlatform(speeds...), partfeas.EDF, alpha)
				if err != nil {
					t.Fatal(err)
				}
				return encode(t, TestResponseFrom(rep))
			}
			armed := func(step string, wantArmed bool) {
				t.Helper()
				code := do(t, s, http.MethodPost, base+"/repartition", `{}`).Code
				if wantCode := map[bool]int{true: http.StatusOK, false: http.StatusConflict}[wantArmed]; code != wantCode {
					t.Fatalf("%s: repartition answered %d, want %d", step, code, wantCode)
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
			admission := func(step string, w AdmissionResponse, admitted bool, nTasks int, test string) {
				t.Helper()
				if w.Admitted != admitted || w.RolledBack == admitted || w.NTasks != nTasks {
					t.Fatalf("%s: admitted=%v rolled_back=%v n_tasks=%d, want admitted=%v n_tasks=%d",
						step, w.Admitted, w.RolledBack, w.NTasks, admitted, nTasks)
				}
				if test != "" {
					if got := encode(t, w.Test); got != test {
						t.Fatalf("%s: test block\n got %s\nwant %s", step, got, test)
					}
				}
			}
			var ar AdmissionResponse

			// Force the hog in: the engine refuses, the commit disarms it.
			post("force hog", "/tasks", `{"task":{"wcet":300,"period":100},"force":true}`, &ar)
			set = append(set, hog)
			admission("force hog", ar, true, len(set), "")
			armed("force hog", false)

			// Forced admit on the fallback: committed, still infeasible.
			post("forced admit", "/tasks", `{"task":{"wcet":10,"period":100},"force":true}`, &ar)
			set = append(set, partfeas.Task{WCET: 10, Period: 100})
			admission("forced admit", ar, true, len(set), want(set, 1))

			// Plain admit on the fallback: rejected and rolled back.
			post("rejected admit", "/tasks", `{"task":{"wcet":10,"period":100}}`, &ar)
			admission("rejected admit", ar, false, len(set), want(append(set.Clone(), partfeas.Task{WCET: 10, Period: 100}), 1))

			// All-or-nothing batch: one union test rejects the whole batch.
			var br BatchAdmissionResponse
			post("aon batch", "/admit-batch", `{"tasks":[{"wcet":5,"period":100},{"wcet":6,"period":100}],"mode":"all_or_nothing"}`, &br)
			if br.NAdmitted != 0 || br.NTasks != len(set) || fmt.Sprint(br.Admitted) != "[false false]" {
				t.Fatalf("aon batch: %+v", br)
			}
			if got := encode(t, br.Test); got != want(append(set.Clone(), partfeas.Task{WCET: 5, Period: 100}, partfeas.Task{WCET: 6, Period: 100}), 1) {
				t.Fatalf("aon batch: test block %s", got)
			}
			armed("aon batch", false)

			// WCET raise: rejected and rolled back.
			raised := set.Clone()
			raised[0].WCET = 60
			post("wcet raise", "/wcet", `{"index":0,"wcet":60}`, &ar)
			admission("wcet raise", ar, false, len(set), want(raised, 1))

			// GET and an ad-hoc alpha both answer from the batch test.
			var st SessionResponse
			if w := do(t, s, http.MethodGet, base, ""); w.Code != http.StatusOK {
				t.Fatalf("get: %d %s", w.Code, w.Body)
			} else if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if len(st.Tasks) != len(set) || encode(t, st.Test) != want(set, 1) {
				t.Fatalf("get: %d tasks, test %s", len(st.Tasks), encode(t, st.Test))
			}
			var tr TestResponse
			post("ad-hoc test", "/test", `{"alpha":4}`, &tr)
			if got := encode(t, tr); got != want(set, 4) {
				t.Fatalf("ad-hoc test: %s", got)
			}

			// Remove the forced small task: committed, still infeasible.
			w = do(t, s, http.MethodDelete, base+"/tasks/4", "")
			if w.Code != http.StatusOK {
				t.Fatalf("remove: %d %s", w.Code, w.Body)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
				t.Fatal(err)
			}
			set = set[:4]
			if ar.Admitted || ar.NTasks != len(set) || encode(t, ar.Test) != want(set, 1) {
				t.Fatalf("remove: %s", w.Body)
			}
			armed("remove", false)

			// WCET lower on the hog restores feasibility and re-arms.
			set[3].WCET = 50
			post("wcet lower", "/wcet", `{"index":3,"wcet":50}`, &ar)
			admission("wcet lower", ar, true, len(set), want(set, 1))
			armed("wcet lower", true)

			// Force the hog again, then remove it: the remove re-arms.
			post("force hog again", "/tasks", `{"task":{"wcet":300,"period":100},"force":true}`, &ar)
			admission("force hog again", ar, true, len(set)+1, "")
			armed("force hog again", false)
			w = do(t, s, http.MethodDelete, base+"/tasks/4", "")
			if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK {
				t.Fatalf("remove hog: %d %s", w.Code, w.Body)
			}
			if !ar.Admitted || ar.NTasks != len(set) || encode(t, ar.Test) != want(set, 1) {
				t.Fatalf("remove hog: %s", w.Body)
			}
			armed("remove hog", true)

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
			pol, err := online.ParsePolicy(placement)
			if err != nil {
				t.Fatal(err)
			}
			adm, _ := partfeas.EDF.Admission()
			eng, err := online.NewEngine(append(set.Clone(), a), partfeas.NewPlatform(speeds...), online.Options{Policy: pol, Admission: adm})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := eng.AdmitBatch([]partfeas.Task{b}, online.BestEffort)
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, a, b)
			wantTest := encode(t, TestResponseFrom(partfeas.Report{Accepted: true, Scheduler: partfeas.EDF, Alpha: 1, Partition: res}))
			if placement == "first_fit_sorted" && wantTest != want(set, 1) {
				t.Fatalf("sorted engine diverged from a fresh solve: %s", wantTest)
			}
			if got := encode(t, br.Test); got != wantTest {
				t.Fatalf("regain batch: test block\n got %s\nwant %s", got, wantTest)
			}
			armed("regain batch", true)
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
