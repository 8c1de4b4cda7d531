package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestConstrainedSessionLifecycle drives a constrained-deadline session
// end to end through the HTTP handlers: create with per-task deadlines,
// single and batch admits, a rejection witness, WCET updates against the
// C ≤ D rule, forced admits and WCET updates, which commit as in an
// implicit session, an infeasible create, which opens holding the
// failure state, and the constrained-specific refusals (repartition,
// non-EDF schedulers, deadlines outside constrained sessions).
func TestConstrainedSessionLifecycle(t *testing.T) {
	s := newTestServer(t)

	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"name":"a","wcet":2,"period":10,"deadline":5},{"name":"b","wcet":1,"period":8}],`+
			`"speeds":[1,0.25],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.DeadlineModel != "constrained" {
		t.Fatalf("deadline_model = %q, want constrained", st.DeadlineModel)
	}
	if st.Tasks[0].Deadline != 5 || st.Tasks[1].Deadline != 0 {
		t.Fatalf("echoed deadlines = %d, %d; want 5 and 0 (implicit)", st.Tasks[0].Deadline, st.Tasks[1].Deadline)
	}
	if !st.Test.Accepted {
		t.Fatalf("feasible constrained set rejected at create: %+v", st.Test)
	}
	base := "/v1/sessions/" + st.ID

	// A constrained admit that fits.
	w = do(t, s, "POST", base+"/tasks", `{"task":{"name":"c","wcet":1,"period":6,"deadline":3}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}
	var ar AdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admitted || ar.NTasks != 3 {
		t.Fatalf("admit: %+v", ar)
	}

	// A density-1 task monopolizes the only machine that can hold it
	// (first-fit places it alone on the speed-1 machine, leaving task a
	// with no feasible home): rejected and rolled back, set unchanged.
	w = do(t, s, "POST", base+"/tasks", `{"task":{"name":"hog","wcet":9,"period":10,"deadline":9}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("reject admit: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Admitted || !ar.RolledBack || ar.NTasks != 3 {
		t.Fatalf("reject admit: %+v", ar)
	}

	// Batch admit with mixed implicit and constrained deadlines.
	w = do(t, s, "POST", base+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":12,"deadline":6},{"wcet":1,"period":16}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var br BatchAdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.NAdmitted != 2 || br.NTasks != 5 {
		t.Fatalf("batch: %+v", br)
	}

	// WCET above the task's deadline violates C ≤ D.
	w = do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":7}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("wcet > deadline: %d %s", w.Code, w.Body)
	}
	// A WCET within the deadline re-tests incrementally.
	w = do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("wcet update: %d %s", w.Code, w.Body)
	}

	// Remove commits and shrinks the deadline bookkeeping.
	w = do(t, s, "DELETE", base+"/tasks/1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admitted || ar.NTasks != 4 {
		t.Fatalf("remove: %+v", ar)
	}

	// Ad-hoc alpha re-test runs a fresh constrained solve.
	w = do(t, s, "POST", base+"/test", `{"alpha":2.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ad-hoc test: %d %s", w.Code, w.Body)
	}

	// Forced ops commit: a feasible one like a plain op, and the hog that
	// was refused above now stays, leaving the failure state.
	w = do(t, s, "POST", base+"/tasks", `{"task":{"wcet":1,"period":30},"force":true}`)
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK || !ar.Admitted || !ar.Test.Accepted || ar.NTasks != 5 {
		t.Fatalf("force admit: %d %s", w.Code, w.Body)
	}
	w = do(t, s, "POST", base+"/tasks", `{"task":{"name":"hog","wcet":9,"period":10,"deadline":9},"force":true}`)
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK ||
		!ar.Admitted || ar.RolledBack || ar.Test.Accepted || ar.Test.FailedTask < 0 || ar.NTasks != 6 {
		t.Fatalf("force admit of the hog: %d %s", w.Code, w.Body)
	}
	w = do(t, s, "POST", base+"/wcet", `{"index":5,"wcet":1,"force":true}`)
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK || !ar.Admitted || !ar.Test.Accepted {
		t.Fatalf("force wcet that shrinks the hog: %d %s", w.Code, w.Body)
	}

	// Constrained refusals.
	if w := do(t, s, "POST", base+"/repartition", `{}`); w.Code != http.StatusConflict {
		t.Fatalf("repartition: %d %s (want %d)", w.Code, w.Body, http.StatusConflict)
	}

	// Model guards outside constrained sessions.
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1],"scheduler":"rms","deadline_model":"constrained"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("rms constrained: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("implicit session with deadline: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/test",
		`{"tasks":[{"wcet":1,"period":4,"deadline":2}],"speeds":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("stateless with deadline: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":4}],"speeds":[1],"deadline_model":"sporadic"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad model: %d %s", w.Code, w.Body)
	}
	// An infeasible constrained create opens holding dbf.FirstFit's
	// failure state: the first task placed, the second failed.
	w = do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":9,"period":10,"deadline":9},{"wcet":9,"period":10,"deadline":9}],"speeds":[1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("infeasible constrained create: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if tr := st.Test; tr.Accepted || tr.FailedTask != 1 || fmt.Sprint(tr.Assignment) != "[0 -1]" || fmt.Sprint(tr.Loads) != "[0.9]" {
		t.Fatalf("infeasible constrained create: test block %+v, want failed task 1, assignment [0 -1], loads [0.9]", tr)
	}
}

// TestConstrainedAdHocFailedTask pins the ad-hoc-alpha witness of a
// constrained session: failed_task names the task first-fit failed on in
// its own (density-descending) order, not the first unplaced task in
// input order. At alpha 0.5 the denser task 1 is tried first and fails,
// so task 0 is never tried.
func TestConstrainedAdHocFailedTask(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":10,"deadline":10},{"wcet":6,"period":10,"deadline":10}],"speeds":[1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	w = do(t, s, "POST", "/v1/sessions/"+st.ID+"/test", `{"alpha":0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ad-hoc test: %d %s", w.Code, w.Body)
	}
	var tr TestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted || tr.FailedTask != 1 {
		t.Fatalf("ad-hoc test: accepted=%v failed_task=%d, want rejected with failed_task 1", tr.Accepted, tr.FailedTask)
	}
}

// TestConstrainedAdmissionMetrics asserts the per-tier admission
// counters move under a constrained-deadline session: after a burst of
// single admits the scrape must show nonzero decisions on the tier
// paths, alongside the tail/interior classification.
func TestConstrainedAdmissionMetrics(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":64,"deadline":32}],"speeds":[1,1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + st.ID
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"task":{"wcet":1,"period":%d,"deadline":%d}}`, 32+i, 16+i)
		if w := do(t, s, "POST", base+"/tasks", body); w.Code != http.StatusOK {
			t.Fatalf("admit %d: %d %s", i, w.Code, w.Body)
		}
	}

	scrape := do(t, s, "GET", "/metrics", "")
	if scrape.Code != http.StatusOK {
		t.Fatalf("metrics: %d", scrape.Code)
	}
	out := scrape.Body.String()
	tierTotal := uint64(0)
	for _, path := range []string{"density", "dbf_exact"} {
		marker := fmt.Sprintf("partfeas_admissions_total{path=%q} ", path)
		at := strings.Index(out, marker)
		if at < 0 {
			t.Fatalf("scrape missing %q:\n%s", marker, out)
		}
		var v uint64
		if _, err := fmt.Sscanf(out[at+len(marker):], "%d", &v); err != nil {
			t.Fatalf("parse %q counter: %v", path, err)
		}
		tierTotal += v
		// Each tier path also exposes its latency summary.
		if q := fmt.Sprintf("partfeas_admission_duration_seconds_count{path=%q} ", path); !strings.Contains(out, q) {
			t.Fatalf("scrape missing %q", q)
		}
	}
	if tierTotal == 0 {
		t.Fatalf("no tier-path admissions recorded:\n%s", out)
	}
	// Every admission path label is one AdmissionPath defines.
	known := map[string]bool{"tail": true, "interior": true, "batch": true, "density": true, "dbf_exact": true}
	const pathPrefix = `partfeas_admissions_total{path="`
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, pathPrefix); ok {
			if label, _, _ := strings.Cut(rest, `"`); !known[label] {
				t.Fatalf("scrape carries unknown admission path %q:\n%s", label, out)
			}
		}
	}
	if !strings.Contains(out, `partfeas_admissions_total{path="tail"}`) {
		t.Fatalf("tail path missing from scrape")
	}
}

// TestConstrainedAdHocAlphaLoads: a constrained session of implicit
// tasks answers an ad-hoc alpha test exactly as an implicit session
// does, loads summed in placement order included (0.3+0.2+0.1 = 0.6,
// where input order would give 0.6000000000000001).
func TestConstrainedAdHocAlphaLoads(t *testing.T) {
	s := newTestServer(t)
	var bodies []string
	for _, model := range []string{"implicit", "constrained"} {
		w := do(t, s, "POST", "/v1/sessions",
			`{"tasks":[{"wcet":1,"period":10},{"wcet":2,"period":10},{"wcet":3,"period":10}],"speeds":[1],"deadline_model":"`+model+`"}`)
		var st SessionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", model, w.Code, w.Body)
		}
		w = do(t, s, "POST", "/v1/sessions/"+st.ID+"/test", `{"alpha":1.0000001}`)
		if w.Code != http.StatusOK {
			t.Fatalf("test %s: %d %s", model, w.Code, w.Body)
		}
		bodies = append(bodies, w.Body.String())
	}
	if bodies[0] != bodies[1] || !strings.Contains(bodies[1], `"loads":[0.6]`) {
		t.Fatalf("ad-hoc test: implicit %s, constrained %s; want both with loads [0.6]", bodies[0], bodies[1])
	}
}
