package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"partfeas"
)

func newTestServer(t testing.TB) *Server {
	t.Helper()
	return New(Config{Logf: t.Logf})
}

// do runs one request straight through the handler, no sockets.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	return doCtx(t, s, context.Background(), method, path, body)
}

func doCtx(t testing.TB, s *Server, ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r.WithContext(ctx))
	return w
}

// encode marshals exactly like the server's WriteJSON (Encoder appends a
// newline), so bodies compare byte-for-byte.
func encode(t testing.TB, v any) string {
	t.Helper()
	var sb strings.Builder
	if err := json.NewEncoder(&sb).Encode(v); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

const demoBody = `{"tasks":[{"name":"video","wcet":9,"period":30},{"name":"audio","wcet":1,"period":4},` +
	`{"name":"net","wcet":3,"period":10},{"name":"ui","wcet":2,"period":12},{"name":"sensor","wcet":1,"period":20}],` +
	`"speeds":[1,1,4]`

// TestHandlerGoldenJSON pins exact response bodies for the stateless
// endpoints: hand-written goldens for the simple cases, library-derived
// goldens (the acceptance criterion: served answers byte-identical to
// direct calls) for the rest.
func TestHandlerGoldenJSON(t *testing.T) {
	ts, p := demoInstances()[0].Tasks, demoInstances()[0].Platform
	acceptRep, err := partfeas.Test(ts, p, partfeas.EDF, 1)
	if err != nil {
		t.Fatal(err)
	}
	rejectRep, err := partfeas.Test(ts, p, partfeas.EDF, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rmsRep, err := partfeas.Test(ts, p, partfeas.RMS, 2)
	if err != nil {
		t.Fatal(err)
	}
	minAlpha, minOK, err := partfeas.MinAlpha(ts, p, partfeas.EDF, 0.01, 8, 1e-6)
	if err != nil || !minOK {
		t.Fatalf("MinAlpha: %v %v %v", minAlpha, minOK, err)
	}

	for _, tc := range []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantBody string // empty = not checked here
	}{
		{
			name: "trivial accept, literal golden", method: "POST", path: "/v1/test",
			body:     `{"tasks":[{"wcet":1,"period":2}],"speeds":[1]}`,
			wantCode: 200,
			wantBody: `{"accepted":true,"scheduler":"EDF","alpha":1,"assignment":[0],"loads":[0.5],"failed_task":-1}` + "\n",
		},
		{
			name: "demo accept matches direct library call", method: "POST", path: "/v1/test",
			body:     demoBody + `}`,
			wantCode: 200,
			wantBody: encode(t, TestResponseFrom(acceptRep)),
		},
		{
			name: "demo reject at α=0.5 matches direct library call", method: "POST", path: "/v1/test",
			body:     demoBody + `,"alpha":0.5}`,
			wantCode: 200,
			wantBody: encode(t, TestResponseFrom(rejectRep)),
		},
		{
			name: "rms via named machines matches direct library call", method: "POST", path: "/v1/test",
			body: `{"tasks":[{"name":"video","wcet":9,"period":30},{"name":"audio","wcet":1,"period":4},` +
				`{"name":"net","wcet":3,"period":10},{"name":"ui","wcet":2,"period":12},{"name":"sensor","wcet":1,"period":20}],` +
				`"machines":[{"name":"m0","speed":1},{"name":"m1","speed":1},{"name":"m2","speed":4}],"scheduler":"rms","alpha":2}`,
			wantCode: 200,
			wantBody: encode(t, TestResponseFrom(rmsRep)),
		},
		{
			name: "minalpha matches direct bisection", method: "POST", path: "/v1/minalpha",
			body:     demoBody + `}`,
			wantCode: 200,
			wantBody: encode(t, MinAlphaResponse{Alpha: minAlpha, OK: true}),
		},
		{
			name: "minalpha unbracketed hi reports ok=false", method: "POST", path: "/v1/minalpha",
			body:     `{"tasks":[{"wcet":9,"period":10},{"wcet":9,"period":10}],"speeds":[1],"hi":1.5}`,
			wantCode: 200,
			wantBody: `{"alpha":0,"ok":false}` + "\n",
		},
		{
			name: "healthz", method: "GET", path: "/healthz", body: "",
			wantCode: 200,
			wantBody: `{"status":"ok"}` + "\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, newTestServer(t), tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tc.wantCode, w.Body)
			}
			if got := w.Body.String(); got != tc.wantBody {
				t.Errorf("body:\n got %q\nwant %q", got, tc.wantBody)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
		})
	}
}

// TestHandlerBadInput walks the 4xx surface: malformed JSON, schema
// violations, and semantically invalid instances all answer 400 with an
// ErrorResponse body.
func TestHandlerBadInput(t *testing.T) {
	for _, tc := range []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantIn   string // substring of the error message
	}{
		{"truncated JSON", "POST", "/v1/test", `{"tasks":[`, 400, "decoding request"},
		{"unknown field", "POST", "/v1/test", `{"tasks":[{"wcet":1,"period":2}],"speeds":[1],"bogus":1}`, 400, "bogus"},
		{"empty body", "POST", "/v1/test", ``, 400, "decoding request"},
		{"no tasks", "POST", "/v1/test", `{"speeds":[1]}`, 400, "task set"},
		{"speeds and machines both", "POST", "/v1/test",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[1],"machines":[{"speed":1}]}`, 400, "not both"},
		{"zero speed names machine", "POST", "/v1/test",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[1,0]}`, 400, "machine 1"},
		{"negative speed names machine", "POST", "/v1/test",
			`{"tasks":[{"wcet":1,"period":2}],"machines":[{"speed":2},{"name":"slow","speed":-1}]}`, 400, "machine 1"},
		{"unknown scheduler", "POST", "/v1/test",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[1],"scheduler":"fifo"}`, 400, "scheduler"},
		{"negative alpha", "POST", "/v1/test",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[1],"alpha":-1}`, 400, "alpha"},
		{"nonpositive task wcet", "POST", "/v1/test",
			`{"tasks":[{"wcet":0,"period":2}],"speeds":[1]}`, 400, "task 0"},
		{"invalid bisection bracket", "POST", "/v1/minalpha",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[1],"lo":3,"hi":2}`, 400, "bracket"},
		{"analyze bad platform", "POST", "/v1/analyze",
			`{"tasks":[{"wcet":1,"period":2}],"speeds":[0]}`, 400, "machine 0"},
		{"session unknown id", "GET", "/v1/sessions/s-999", ``, 404, "unknown session"},
		{"session delete unknown id", "DELETE", "/v1/sessions/s-999", ``, 404, "unknown session"},
		{"method not allowed", "GET", "/v1/test", ``, 405, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, newTestServer(t), tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tc.wantCode, w.Body)
			}
			if tc.wantIn == "" {
				return
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatalf("non-JSON error body %q: %v", w.Body, err)
			}
			if !strings.Contains(er.Error, tc.wantIn) {
				t.Errorf("error %q does not mention %q", er.Error, tc.wantIn)
			}
		})
	}
}

// TestHandlerDeadlineExpiry pins the 504 path: a server whose default
// per-request deadline is 1ns expires every context before the solver
// runs, deterministically.
func TestHandlerDeadlineExpiry(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Nanosecond, MaxTimeout: -1, Logf: t.Logf})
	for _, path := range []string{"/v1/test", "/v1/minalpha"} {
		w := do(t, s, "POST", path, demoBody+`}`)
		if w.Code != http.StatusGatewayTimeout {
			t.Errorf("%s: code = %d, want 504 (body %s)", path, w.Code, w.Body)
		}
	}
	// /v1/analyze is the exception by design: a deadline is a budget for
	// the exact stage, which degrades to its certified bound — the request
	// still answers 200.
	if w := do(t, s, "POST", "/v1/analyze", demoBody+`}`); w.Code != http.StatusOK {
		t.Errorf("/v1/analyze under expired deadline: code = %d, want 200 (body %s)", w.Code, w.Body)
	}
	// Session creation re-tests the set under the same expired deadline and
	// must not leave a half-created session behind.
	w := do(t, s, "POST", "/v1/sessions", demoBody+`}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("sessions: code = %d, want 504 (body %s)", w.Code, w.Body)
	}
	if n := s.sessions.count(); n != 0 {
		t.Errorf("%d sessions left after failed create", n)
	}
}

// TestHandlerClientGone pins the 499 path: the client's own context is
// already cancelled, so the failure is recorded as client-closed, not as
// a server timeout.
func TestHandlerClientGone(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := doCtx(t, s, ctx, "POST", "/v1/test", demoBody+`}`)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("code = %d, want %d (body %s)", w.Code, StatusClientClosedRequest, w.Body)
	}
	var sb strings.Builder
	s.Metrics().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "partfeas_http_requests_canceled_total 1") {
		t.Error("cancelled request not counted in metrics")
	}
}

func TestHandlerCacheHeaderAndMetrics(t *testing.T) {
	s := newTestServer(t)
	first := do(t, s, "POST", "/v1/test", demoBody+`}`)
	second := do(t, s, "POST", "/v1/test", demoBody+`}`)
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cache hit changed the response body")
	}

	w := do(t, s, "GET", "/metrics", "")
	if w.Code != 200 {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		`partfeas_http_requests_total{endpoint="/v1/test",code="200"} 2`,
		"partfeas_tester_cache_hits_total 1",
		"partfeas_tester_cache_misses_total 1",
		"partfeas_tester_cache_hit_ratio 0.5",
		"partfeas_http_in_flight 0",
		"partfeas_sessions_active 0",
		"partfeas_http_request_duration_seconds_count 2",
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, w.Body)
		}
	}

	// /debug/vars serves the expvar JSON document.
	w = do(t, s, "GET", "/debug/vars", "")
	if w.Code != 200 {
		t.Fatalf("/debug/vars: %d", w.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
}

// TestHandlerAnalyze compares the served analysis against a direct
// AnalyzeCtx call, byte for byte.
func TestHandlerAnalyze(t *testing.T) {
	in := demoInstances()[0]
	a, err := partfeas.AnalyzeCtx(context.Background(), in.Tasks, in.Platform, partfeas.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, newTestServer(t), "POST", "/v1/analyze", demoBody+`}`)
	if w.Code != 200 {
		t.Fatalf("code = %d (body %s)", w.Code, w.Body)
	}
	if want := encode(t, AnalyzeResponseFrom(a)); w.Body.String() != want {
		t.Errorf("analyze body:\n got %s\nwant %s", w.Body, want)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Theorems) != 4 || resp.Degraded {
		t.Errorf("unexpected analysis %+v", resp)
	}
}

// TestSessionLifecycle drives one session through create, re-test,
// admit/reject/force, incremental WCET updates with rollback, removal,
// and deletion — asserting the response JSON at each step.
func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t)

	// Create: two light tasks on one unit machine.
	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"name":"a","wcet":1,"period":4},{"name":"b","wcet":1,"period":4}],"speeds":[1]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d (body %s)", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || !st.Test.Accepted || len(st.Tasks) != 2 || st.Alpha != 1 {
		t.Fatalf("create state %+v", st)
	}
	base := "/v1/sessions/" + st.ID

	admission := func(w *httptest.ResponseRecorder) AdmissionResponse {
		t.Helper()
		if w.Code != 200 {
			t.Fatalf("code = %d (body %s)", w.Code, w.Body)
		}
		var ar AdmissionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}

	// A fitting task is admitted.
	ar := admission(do(t, s, "POST", base+"/tasks", `{"task":{"name":"c","wcet":1,"period":4}}`))
	if !ar.Admitted || ar.RolledBack || ar.NTasks != 3 {
		t.Fatalf("admit fitting: %+v", ar)
	}
	// An oversized task is rejected and rolled back...
	ar = admission(do(t, s, "POST", base+"/tasks", `{"task":{"name":"hog","wcet":9,"period":10}}`))
	if ar.Admitted || !ar.RolledBack || ar.NTasks != 3 || ar.Test.Accepted {
		t.Fatalf("reject oversized: %+v", ar)
	}
	// ...unless forced.
	ar = admission(do(t, s, "POST", base+"/tasks", `{"task":{"name":"hog","wcet":9,"period":10},"force":true}`))
	if !ar.Admitted || ar.RolledBack || ar.NTasks != 4 {
		t.Fatalf("force oversized: %+v", ar)
	}
	// The forced set fails its re-test.
	w = do(t, s, "POST", base+"/test", `{}`)
	var tr TestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted {
		t.Fatalf("forced-overload set should fail re-test: %+v", tr)
	}
	// Removing the hog (index 3) restores feasibility; removal always commits.
	ar = admission(do(t, s, "DELETE", base+"/tasks/3", ""))
	if !ar.Admitted || ar.NTasks != 3 {
		t.Fatalf("remove hog: %+v", ar)
	}
	// Incremental WCET growth within capacity is admitted.
	ar = admission(do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":2}`))
	if !ar.Admitted || ar.RolledBack {
		t.Fatalf("wcet grow: %+v", ar)
	}
	// Growth beyond capacity is rejected and rolled back.
	ar = admission(do(t, s, "POST", base+"/wcet", `{"index":0,"wcet":4}`))
	if ar.Admitted || !ar.RolledBack {
		t.Fatalf("wcet overgrow: %+v", ar)
	}
	// The rollback really restored WCET=2: session state must be
	// byte-identical to a direct library call on the post-update set.
	w = do(t, s, "GET", base, "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	wantTasks := partfeas.TaskSet{
		{Name: "a", WCET: 2, Period: 4},
		{Name: "b", WCET: 1, Period: 4},
		{Name: "c", WCET: 1, Period: 4},
	}
	rep, err := partfeas.TestCtx(context.Background(),
		partfeas.Instance{Tasks: wantTasks, Platform: partfeas.NewPlatform(1), Scheduler: partfeas.EDF}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encode(t, st.Test), encode(t, TestResponseFrom(rep)); got != want {
		t.Errorf("session state after rollback:\n got %s\nwant %s", got, want)
	}

	// Index and boundary errors.
	for _, tc := range []struct {
		method, path, body string
		wantCode           int
	}{
		{"POST", base + "/wcet", `{"index":7,"wcet":1}`, 400},
		{"POST", base + "/wcet", `{"index":0,"wcet":0}`, 400},
		{"DELETE", base + "/tasks/7", "", 400},
		{"DELETE", base + "/tasks/x", "", 400},
		{"POST", base + "/test", `{"alpha":-2}`, 400},
	} {
		if w := do(t, s, tc.method, tc.path, tc.body); w.Code != tc.wantCode {
			t.Errorf("%s %s: code = %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.wantCode, w.Body)
		}
	}

	// Cannot remove the last task: shrink to one first.
	ar = admission(do(t, s, "DELETE", base+"/tasks/2", ""))
	ar = admission(do(t, s, "DELETE", base+"/tasks/1", ""))
	if ar.NTasks != 1 {
		t.Fatalf("shrink: %+v", ar)
	}
	if w := do(t, s, "DELETE", base+"/tasks/0", ""); w.Code != 400 {
		t.Errorf("removing last task: code = %d, want 400", w.Code)
	}

	// Delete, then every path answers 404.
	if w := do(t, s, "DELETE", base, ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	for _, tc := range []struct{ method, path, body string }{
		{"GET", base, ""},
		{"DELETE", base, ""},
		{"POST", base + "/test", `{}`},
		{"POST", base + "/tasks", `{"task":{"wcet":1,"period":4}}`},
		{"POST", base + "/wcet", `{"index":0,"wcet":1}`},
	} {
		if w := do(t, s, tc.method, tc.path, tc.body); w.Code != http.StatusNotFound {
			t.Errorf("%s %s after delete: code = %d, want 404", tc.method, tc.path, w.Code)
		}
	}
	if n := s.sessions.count(); n != 0 {
		t.Errorf("%d sessions alive after delete", n)
	}
}

func TestSessionLimit(t *testing.T) {
	s := New(Config{MaxSessions: 2, Logf: t.Logf})
	body := `{"tasks":[{"wcet":1,"period":4}],"speeds":[1]}`
	for i := 0; i < 2; i++ {
		if w := do(t, s, "POST", "/v1/sessions", body); w.Code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, w.Code)
		}
	}
	w := do(t, s, "POST", "/v1/sessions", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: code = %d, want 429", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/sessions/s-1", ""); w.Code != http.StatusNoContent {
		t.Fatal("delete to free a slot failed")
	}
	if w := do(t, s, "POST", "/v1/sessions", body); w.Code != http.StatusCreated {
		t.Errorf("create after free: code = %d, want 201", w.Code)
	}
}

// TestSessionIncrementalMatchesRebuild proves the incremental
// UpdateWCET path decides bit-identically to a from-scratch tester at
// every step of a growth sweep.
func TestSessionIncrementalMatchesRebuild(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "POST", "/v1/sessions",
		`{"tasks":[{"name":"a","wcet":2,"period":10},{"name":"b","wcet":3,"period":10},{"name":"c","wcet":1,"period":5}],"speeds":[1,1],"scheduler":"rms"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d (body %s)", w.Code, w.Body)
	}
	var st SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	tasks := partfeas.TaskSet{
		{Name: "a", WCET: 2, Period: 10},
		{Name: "b", WCET: 3, Period: 10},
		{Name: "c", WCET: 1, Period: 5},
	}
	plat := partfeas.NewPlatform(1, 1)
	for step, upd := range []struct {
		idx  int
		wcet int64
	}{{0, 5}, {1, 1}, {2, 3}, {0, 2}, {2, 4}, {1, 6}} {
		w := do(t, s, "POST", "/v1/sessions/"+st.ID+"/wcet",
			fmt.Sprintf(`{"index":%d,"wcet":%d,"force":true}`, upd.idx, upd.wcet))
		if w.Code != 200 {
			t.Fatalf("step %d: %d (body %s)", step, w.Code, w.Body)
		}
		var ar AdmissionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
			t.Fatal(err)
		}
		tasks[upd.idx].WCET = upd.wcet // force always commits
		rep, err := partfeas.TestCtx(context.Background(),
			partfeas.Instance{Tasks: tasks, Platform: plat, Scheduler: partfeas.RMS}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encode(t, ar.Test), encode(t, TestResponseFrom(rep)); got != want {
			t.Errorf("step %d: incremental %s != rebuilt %s", step, got, want)
		}
	}
}
