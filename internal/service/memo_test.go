package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestLoadMemoDifferential holds the load memo to what it caches: every
// response a session answers through its memo must byte-equal the same
// response encoded with a cold memo. It first drives loadMemo directly
// with −0, +0, non-finite and arbitrary floats against appendFloats (a
// memo keyed by value would serve "0" for −0), then runs seeded scripts
// through the handler on first_fit_sorted, best_fit and constrained
// sessions. Each script goes to two durable servers, and the cold one's
// session memo is cleared before every request. The ops: tail, interior,
// rejected and forced admits; both batch modes; removes; WCET updates;
// GET; /test at the session and an ad-hoc alpha; repartition; a snapshot
// and a crash restore; a migration. A refused mutation must also leave
// the warm memo exactly as it was: only committed loads may update it.
func TestLoadMemoDifferential(t *testing.T) {
	t.Run("floats", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		pool := []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, -2.5e21, 5e-324, math.MaxFloat64,
			-1.2345678901234567e-300, 1.2345678901234567e-6, -123456789012345678901, math.Inf(1), math.NaN()}
		var memo loadMemo
		for step := 0; step < 2000; step++ {
			loads := make([]float64, 4)
			for j := range loads {
				if rng.Intn(3) == 0 {
					loads[j] = math.Float64frombits(rng.Uint64())
				} else {
					loads[j] = pool[rng.Intn(len(pool))]
				}
			}
			got, gok := memo.appendLoads(nil, loads, rng.Intn(4) != 0)
			want, wok := appendFloats(nil, loads)
			if gok != wok || (wok && string(got) != string(want)) {
				t.Fatalf("step %d: loads %v: memo wrote %s (ok %v), cold %s (ok %v)", step, loads, got, gok, want, wok)
			}
		}
	})
	for _, c := range []struct {
		name, placement string
		constrained     bool
	}{
		{"first_fit_sorted", "first_fit_sorted", false},
		{"best_fit", "best_fit", false},
		{"constrained", "first_fit_sorted", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				runMemoScript(t, seed, c.placement, c.constrained)
			}
		})
	}
}

// memoTwin is one side of the memo differential: a durable server and
// the directory it restores from.
type memoTwin struct {
	srv  *Server
	dir  string
	cold bool // clear the session memo before every request
}

func (tw *memoTwin) do(t *testing.T, id, method, path, body string) (int, string) {
	t.Helper()
	if tw.cold {
		sess, err := tw.srv.sessions.get(id)
		if err == nil {
			sess.mu.Lock()
			sess.memo = nil
			sess.mu.Unlock()
		}
	}
	w := do(t, tw.srv, method, path, body)
	return w.Code, w.Body.String()
}

// memoOf copies session id's memo on tw, nil when there is no session.
func (tw *memoTwin) memoOf(id string) loadMemo {
	sess, err := tw.srv.sessions.get(id)
	if err != nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return slices.Clone(sess.memo)
}

func runMemoScript(t *testing.T, seed int64, placement string, constrained bool) {
	rng := rand.New(rand.NewSource(seed))
	const id = "memo-1"
	twins := []*memoTwin{{dir: t.TempDir()}, {dir: t.TempDir(), cold: true}}
	for _, tw := range twins {
		tw.srv = mustDurable(t, tw.dir, Config{Addr: "127.0.0.1:0", SnapshotEvery: -1})
	}
	model := ""
	if constrained {
		model = `,"deadline_model":"constrained"`
	}
	create := fmt.Sprintf(`{"tasks":[{"wcet":3,"period":10},{"wcet":2,"period":9},{"wcet":5,"period":40},{"wcet":1,"period":7}],`+
		`"speeds":[0.5,0.75,1,1],"placement":%q%s}`, placement, model)
	// task draws an admitted task's JSON: a tail task (utilization below
	// every resident one), an interior one, or a head task no machine
	// takes (on a constrained session, where C ≤ D, a density-1 task no
	// loaded machine takes).
	task := func(kind int) string {
		per := int64(10 + rng.Intn(90))
		wcet := 1 + rng.Int63n(per/2)
		dl := wcet + rng.Int63n(per-wcet+1)
		switch {
		case kind == 0:
			per, wcet, dl = 1000+rng.Int63n(1000), 1, per
		case kind == 2 && constrained:
			wcet, dl = per-1, per-1
		case kind == 2:
			wcet = 4 * per
		}
		if constrained {
			return fmt.Sprintf(`{"wcet":%d,"period":%d,"deadline":%d}`, wcet, per, dl)
		}
		return fmt.Sprintf(`{"wcet":%d,"period":%d}`, wcet, per)
	}
	base := "/v1/sessions/" + id
	n := 4 // resident tasks, as the warm side reports them
	refusals := 0
	const ops = 160
	for op := 0; op < ops; op++ {
		switch op {
		case ops / 4:
			for _, tw := range twins {
				if err := tw.srv.dur.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			continue
		case ops / 2: // restore from the snapshot plus the WAL tail
			for _, tw := range twins {
				tw.srv.Crash()
				tw.srv = mustDurable(t, tw.dir, Config{Addr: "127.0.0.1:0", SnapshotEvery: -1})
			}
			continue
		case 3 * ops / 4:
			for _, tw := range twins {
				dst := testServer(t)
				if _, err := tw.srv.migrateTo(context.Background(), id, startHTTP(t, dst)); err != nil {
					t.Fatalf("seed %d: migrate: %v", seed, err)
				}
				tw.srv = dst
			}
			continue
		}
		var method, path, body string
		switch k := rng.Intn(20); {
		case op == 0:
			method, path, body = http.MethodPost, "/v1/sessions", create
		case k < 4:
			method, path, body = http.MethodPost, base+"/tasks", fmt.Sprintf(`{"task":%s}`, task(0))
		case k < 6:
			method, path, body = http.MethodPost, base+"/tasks", fmt.Sprintf(`{"task":%s}`, task(1))
		case k < 8:
			method, path, body = http.MethodPost, base+"/tasks", fmt.Sprintf(`{"task":%s}`, task(2))
		case k < 9:
			method, path, body = http.MethodPost, base+"/tasks", fmt.Sprintf(`{"task":%s,"force":true}`, task(rng.Intn(3)))
		case k < 11:
			mode := [2]string{"best_effort", "all_or_nothing"}[rng.Intn(2)]
			method, path, body = http.MethodPost, base+"/admit-batch",
				fmt.Sprintf(`{"tasks":[%s,%s,%s],"mode":%q}`, task(rng.Intn(3)), task(1), task(0), mode)
		case k < 14:
			method, path = http.MethodDelete, fmt.Sprintf("%s/tasks/%d", base, rng.Intn(n))
		case k < 16:
			method, path, body = http.MethodPost, base+"/wcet", fmt.Sprintf(`{"index":%d,"wcet":%d}`, rng.Intn(n), 1+rng.Intn(12))
		case k < 17:
			method, path = http.MethodGet, base
		case k < 18:
			method, path, body = http.MethodPost, base+"/test", [2]string{`{}`, `{"alpha":1.5}`}[rng.Intn(2)]
		default:
			method, path, body = http.MethodPost, base+"/repartition", [2]string{`{}`, `{"apply":true}`}[rng.Intn(2)]
		}
		before := twins[0].memoOf(id)
		var bodies [2]string
		var codes [2]int
		for i, tw := range twins {
			if op == 0 {
				r := httptest.NewRequest(method, path, strings.NewReader(body))
				r.Header.Set("X-Session-ID", id)
				w := httptest.NewRecorder()
				tw.srv.Handler().ServeHTTP(w, r)
				codes[i], bodies[i] = w.Code, w.Body.String()
				continue
			}
			codes[i], bodies[i] = tw.do(t, id, method, path, body)
		}
		step := fmt.Sprintf("seed %d op %d: %s %s %s", seed, op, method, path, body)
		if codes[0] != codes[1] || bodies[0] != bodies[1] {
			t.Fatalf("%s: warm memo answered %d %s\ncold memo answered %d %s", step, codes[0], bodies[0], codes[1], bodies[1])
		}
		var resp struct {
			NTasks     *int   `json:"n_tasks"`
			RolledBack bool   `json:"rolled_back"`
			NAdmitted  *int   `json:"n_admitted"`
			Mode       string `json:"mode"`
		}
		if codes[0] < 300 && json.Unmarshal([]byte(bodies[0]), &resp) == nil {
			if resp.NTasks != nil {
				n = *resp.NTasks
			}
			refused := resp.RolledBack || (resp.Mode != "" && resp.NAdmitted != nil && *resp.NAdmitted == 0)
			if refused {
				refusals++
			}
			if after := twins[0].memoOf(id); refused && !slices.Equal(before, after) {
				t.Fatalf("%s: a refusal changed the memo\nbefore %v\n after %v", step, before, after)
			}
		}
	}
	if refusals == 0 {
		t.Fatalf("seed %d: no refusal drawn; the memo check on refusals is vacuous", seed)
	}
}
