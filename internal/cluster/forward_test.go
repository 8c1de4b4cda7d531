package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestForwardRoutingSignals drives forward's retry loop against a fake
// replica that answers a scripted status sequence: in-progress
// migrations (503 + X-Migration) are retried up to forwardAttempts times
// and counted, a budget-exhausting migration 503 reaches the client with
// its shard stamp, and a 421 tombstone naming no owner is final.
func TestForwardRoutingSignals(t *testing.T) {
	const ok = `{"ok":true}`
	cases := []struct {
		name        string
		reply       func(call int, w http.ResponseWriter) // call counts from 0
		wantCode    int
		wantBody    string
		wantRetries uint64
		wantCalls   int64
	}{
		{"one migration 503 then 200", migratingFor(1, ok), http.StatusOK, ok, 1, 2},
		{"four migration 503s then 200", migratingFor(4, ok), http.StatusOK, ok, 4, 5},
		{"migration 503 every time", migratingFor(1<<30, ok), http.StatusServiceUnavailable, "", forwardAttempts, forwardAttempts + 1},
		{"421 without an owner", func(_ int, w http.ResponseWriter) {
			w.WriteHeader(http.StatusMisdirectedRequest)
		}, http.StatusMisdirectedRequest, "", 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				tc.reply(int(calls.Add(1)-1), w)
			}))
			defer fake.Close()
			c := New(Config{Replicas: []string{fake.URL}, HealthInterval: -1, IDPrefix: "t"})
			defer c.Close()

			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s-1", nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantCode, rec.Body)
			}
			if tc.wantBody != "" && rec.Body.String() != tc.wantBody {
				t.Errorf("body %q, want %q", rec.Body, tc.wantBody)
			}
			if tc.wantCode != http.StatusMisdirectedRequest && rec.Header().Get("X-Shard") != fake.URL {
				t.Errorf("X-Shard %q, want %q", rec.Header().Get("X-Shard"), fake.URL)
			}
			if got := c.Status().MigrationRetries; got != tc.wantRetries {
				t.Errorf("migration retries %d, want %d", got, tc.wantRetries)
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Errorf("replica saw %d calls, want %d", got, tc.wantCalls)
			}
		})
	}
}

// migratingFor answers 503 + X-Migration to the first n calls and body
// with a 200 after.
func migratingFor(n int, body string) func(int, http.ResponseWriter) {
	return func(call int, w http.ResponseWriter) {
		if call < n {
			w.Header().Set("X-Migration", "in-progress")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(body))
	}
}
