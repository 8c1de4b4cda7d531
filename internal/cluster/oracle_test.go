package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partfeas/internal/service"
)

// oracleSnapshotEvery keeps every replica snapshotting every few ops, so
// a crash-restart recovers from a snapshot plus a short WAL tail.
const oracleSnapshotEvery = 8

// TestClusterOracle is the full-stack differential test. A seeded op
// script runs through a coordinator over 3 durable replicas, with forced
// migrations, one rebalance and replica crash-restarts injected between
// ops at seeded points. Every response, status and body byte for byte,
// must equal the answer of a reference durable server that sees the same
// requests (and X-Session-ID) but is never crashed or migrated. A final
// phase carries a constrained session's failure state through a
// migration and a crash-restart (carryFailure), then crashes a replica
// under concurrent load and checks that every session still answers and
// no acknowledged admit was lost.
func TestClusterOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			o := newOracle(t, seed)
			o.script(500)
			o.crashUnderLoad()
		})
	}
}

type oracle struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	c    *Coordinator
	base string
	reps []*testReplica
	ref  *service.Server

	ids         []string
	deleted     []string        // ids of deleted sessions, read back now and then
	constrained map[string]bool // sessions created with deadline_model "constrained"
	cons        bool            // the op in flight targets a constrained session
	nextID      int
	nextTask    int
	op          int            // index of the script op in flight
	compared    map[string]int // responses compared, by op kind
	outcomes    map[string]int // notable verdicts seen, e.g. "rolled_back"
	injected    map[string]int // migrations, rebalances, crash-restarts
}

func newOracle(t *testing.T, seed int64) *oracle {
	o := &oracle{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
		constrained: map[string]bool{},
		compared:    map[string]int{}, outcomes: map[string]int{}, injected: map[string]int{},
	}
	durable := func() service.Config {
		return service.Config{DataDir: t.TempDir(), FsyncInterval: -1, SnapshotEvery: oracleSnapshotEvery, Logf: t.Logf}
	}
	for i := 0; i < 3; i++ {
		o.reps = append(o.reps, bootReplica(t, durable()))
	}
	o.c = startCoordinator(t, o.reps...)
	o.base = coordURL(o.c)
	ref, err := service.NewDurable(service.Config{DataDir: t.TempDir(), FsyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	t.Cleanup(func() { _ = ref.Close() })
	o.ref = ref
	return o
}

// oracleOps weighs the script's op kinds.
var oracleOps = []struct {
	kind   string
	weight int
}{
	{"get", 8}, {"test", 4}, {"tail", 14}, {"interior", 12}, {"reject", 5},
	{"force", 4}, {"remove", 18}, {"wcet", 10}, {"batch", 8},
	{"repartition", 6}, {"create", 2}, {"delete", 1},
}

// sessionShapes are the create variants the script cycles through.
var sessionShapes = []string{
	`"speeds":[1,1,2],"scheduler":"edf"`,
	`"speeds":[1,2],"scheduler":"rms"`,
	`"speeds":[1,1,2],"scheduler":"edf","placement":"best_fit"`,
	`"speeds":[1,2],"scheduler":"edf","deadline_model":"constrained"`,
	`"speeds":[1,1],"scheduler":"edf","alpha":1.5,"placement":"first_fit_arrival"`,
	`"speeds":[1,1,2],"scheduler":"edf","deadline_model":"constrained"`,
}

// script runs n seeded ops over the sessions, injecting 6 forced
// migrations, 1 rebalance and 4 crash-restarts at seeded op indices.
func (o *oracle) script(n int) {
	t := o.t
	for range sessionShapes {
		o.create()
	}
	inject := map[int]string{}
	points := o.rng.Perm(n - 40)
	for i, what := range []string{"migrate", "migrate", "migrate", "migrate", "migrate", "migrate", "rebalance", "crash", "crash", "crash", "crash"} {
		inject[20+points[i]] = what
	}
	total := 0
	for _, op := range oracleOps {
		total += op.weight
	}
	for o.op = 0; o.op < n; o.op++ {
		switch inject[o.op] {
		case "migrate":
			o.migrate()
		case "rebalance":
			o.rebalance()
		case "crash":
			o.crashRestart(o.reps[o.rng.Intn(len(o.reps))])
		}
		pick := o.rng.Intn(total)
		for _, op := range oracleOps {
			if pick -= op.weight; pick < 0 {
				o.step(op.kind)
				break
			}
		}
	}
	o.carryFailure()
	for _, op := range oracleOps {
		if o.compared[op.kind] == 0 {
			t.Errorf("no %s op compared", op.kind)
		}
	}
	for _, v := range []string{"rolled_back", "forced", "infeasible", "constrained_forced", "constrained_infeasible_create"} {
		if o.outcomes[v] == 0 {
			t.Errorf("no %s outcome seen", v)
		}
	}
	if o.injected["constrained_failing_moved"] == 0 {
		t.Errorf("no constrained session in a failure state was migrated or crash-restored")
	}
	sum := 0
	for _, k := range o.compared {
		sum += k
	}
	t.Logf("seed %d: %d responses compared %v; outcomes %v; injected %v", o.seed, sum, o.compared, o.outcomes, o.injected)
}

// step runs one op of the given kind against a random session.
func (o *oracle) step(kind string) {
	id := o.ids[o.rng.Intn(len(o.ids))]
	path := "/v1/sessions/" + id
	cons := o.constrained[id]
	o.cons = cons
	switch kind {
	case "get":
		if len(o.deleted) > 0 && o.rng.Intn(6) == 0 {
			path = "/v1/sessions/" + o.deleted[o.rng.Intn(len(o.deleted))]
		}
		o.do(kind, http.MethodGet, path, "", "")
	case "test":
		body := `{}`
		if o.rng.Intn(3) == 0 {
			body = `{"alpha":1.25}`
		}
		o.do(kind, http.MethodPost, path+"/test", body, "")
	case "tail", "interior", "reject":
		o.do(kind, http.MethodPost, path+"/tasks", fmt.Sprintf(`{"task":%s}`, o.task(kind, cons)), "")
	case "force":
		o.do(kind, http.MethodPost, path+"/tasks", fmt.Sprintf(`{"task":%s,"force":true}`, o.task(kind, cons)), "")
	case "remove":
		// One index in n+1 is out of range; a one-task session refuses.
		idx := o.rng.Intn(len(o.state(id).Tasks) + 1)
		o.do(kind, http.MethodDelete, fmt.Sprintf("%s/tasks/%d", path, idx), "", "")
	case "wcet":
		tasks := o.state(id).Tasks
		idx := o.rng.Intn(len(tasks))
		wcet := max(1, tasks[idx].Period*int64(5+o.rng.Intn(60))/100)
		force := o.rng.Intn(6) == 0
		o.do(kind, http.MethodPost, path+"/wcet", fmt.Sprintf(`{"index":%d,"wcet":%d,"force":%v}`, idx, wcet, force), "")
	case "batch":
		parts := make([]string, 2+o.rng.Intn(3))
		for i := range parts {
			parts[i] = o.task([]string{"tail", "interior"}[o.rng.Intn(2)], cons)
		}
		mode := []string{"best_effort", "all_or_nothing"}[o.rng.Intn(2)]
		o.do(kind, http.MethodPost, path+"/admit-batch", fmt.Sprintf(`{"tasks":[%s],"mode":%q}`, strings.Join(parts, ","), mode), "")
	case "repartition":
		body := []string{`{}`, `{}`, `{"apply":true}`, `{"apply":true,"max_moves":1}`}[o.rng.Intn(4)]
		o.do(kind, http.MethodPost, path+"/repartition", body, "")
	case "create":
		o.create()
	case "delete":
		if len(o.ids) <= len(sessionShapes) {
			o.do("get", http.MethodGet, path, "", "")
			return
		}
		o.do(kind, http.MethodDelete, path, "", "")
		o.deleted = append(o.deleted, id)
		for i, v := range o.ids {
			if v == id {
				o.ids = append(o.ids[:i], o.ids[i+1:]...)
				break
			}
		}
	}
}

// create opens the next session shape under a test-chosen id. Half the
// constrained sessions open infeasible: five force tasks overfill either
// constrained shape.
func (o *oracle) create() {
	id := fmt.Sprintf("o%d-%d", o.seed, o.nextID)
	shape := sessionShapes[o.nextID%len(sessionShapes)]
	o.nextID++
	cons := strings.Contains(shape, "constrained")
	o.cons = cons
	tasks := []string{o.task("interior", cons), o.task("tail", cons), o.task("interior", cons)}
	if cons && o.rng.Intn(2) == 0 {
		for i := 0; i < 5; i++ {
			tasks = append(tasks, o.task("force", cons))
		}
	}
	o.do("create", http.MethodPost, "/v1/sessions", fmt.Sprintf(`{"tasks":[%s],%s}`, strings.Join(tasks, ","), shape), id)
	o.ids = append(o.ids, id)
	o.constrained[id] = cons
}

// task draws one task of a kind: tail tasks carry tiny utilization and
// sort last, interior ones land mid-order, reject ones exceed any
// machine at any alpha the script uses, and force ones are mostly
// heavy enough to leave a session infeasible: utilization 1.5–2.5, or in
// a constrained session, where C ≤ D ≤ P caps it at 1, C = P − (0..2).
// In a constrained session half of the tasks with C < P carry a deadline
// below the period.
func (o *oracle) task(kind string, constrained bool) string {
	var p, c int64
	switch kind {
	case "tail":
		p = 200 + o.rng.Int63n(200)
		c = 1 + o.rng.Int63n(3)
	case "interior":
		p = 10 + o.rng.Int63n(40)
		c = max(1, p*(15+o.rng.Int63n(30))/100)
	case "reject":
		p = 10 + o.rng.Int63n(10)
		c = 4 * p
	case "force":
		p = 10 + o.rng.Int63n(10)
		c = p * (150 + o.rng.Int63n(100)) / 100
		if constrained {
			c = p - c%3
		}
	}
	o.nextTask++
	if constrained && c < p && o.rng.Intn(2) == 0 {
		return fmt.Sprintf(`{"name":"t%d","wcet":%d,"period":%d,"deadline":%d}`, o.nextTask, c, p, c+o.rng.Int63n(p-c))
	}
	return fmt.Sprintf(`{"name":"t%d","wcet":%d,"period":%d}`, o.nextTask, c, p)
}

// do sends one request to the cluster and to the reference and fails the
// test unless both answer the same status and body. id, when set, is the
// X-Session-ID of a create.
func (o *oracle) do(kind, method, path, body, id string) {
	o.t.Helper()
	code, got, err := send(method, o.base+path, body, id)
	if err != nil {
		o.t.Fatalf("op %d %s %s %s: %v", o.op, kind, method, path, err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if id != "" {
		req.Header.Set("X-Session-ID", id)
	}
	o.ref.Handler().ServeHTTP(rec, req)
	if code != rec.Code || !bytes.Equal(got, rec.Body.Bytes()) {
		o.t.Fatalf("op %d (%s) %s %s %s:\ncluster   %d %s\nreference %d %s",
			o.op, kind, method, path, body, code, got, rec.Code, rec.Body)
	}
	o.compared[kind]++
	o.note(kind, got)
}

// note tallies the verdicts the coverage check asks for.
func (o *oracle) note(kind string, body []byte) {
	var v struct {
		Admitted   bool `json:"admitted"`
		RolledBack bool `json:"rolled_back"`
		Test       struct {
			Accepted bool `json:"accepted"`
		} `json:"test"`
	}
	if json.Unmarshal(body, &v) != nil {
		return
	}
	switch {
	case v.RolledBack:
		o.outcomes["rolled_back"]++
	case kind == "force" && v.Admitted && !v.Test.Accepted:
		o.outcomes["forced"]++
		if o.cons {
			o.outcomes["constrained_forced"]++
		}
	case kind != "force" && !v.Test.Accepted:
		o.outcomes["infeasible"]++ // served by the fallback re-solve
		if o.cons && kind == "create" {
			o.outcomes["constrained_infeasible_create"]++
		}
	}
}

// noteFailing counts the constrained sessions in a failure state among
// ids, which a migration or crash-restore is about to carry through a
// snapshot with engine: false.
func (o *oracle) noteFailing(ids ...string) {
	for _, id := range ids {
		if o.constrained[id] && !o.state(id).Test.Accepted {
			o.injected["constrained_failing_moved"]++
		}
	}
}

// state reads a session from the reference (uncompared bookkeeping).
func (o *oracle) state(id string) service.SessionResponse {
	rec := httptest.NewRecorder()
	o.ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	var sr service.SessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || rec.Code != http.StatusOK {
		o.t.Fatalf("reference state of %s: %d %s", id, rec.Code, rec.Body)
	}
	return sr
}

// carryFailure drives a constrained session into a failure state with
// forced admits, then migrates it and crash-restarts its new holder, so
// the failure state crosses a migration and a recovery, each through a
// snapshot with engine: false. A GET after each must match the reference.
func (o *oracle) carryFailure() {
	var id string
	for id == "" {
		for _, v := range o.ids {
			if o.constrained[v] {
				id = v
				break
			}
		}
		if id == "" {
			o.create()
		}
	}
	path := "/v1/sessions/" + id
	o.cons = true
	for i := 0; o.state(id).Test.Accepted; i++ {
		if i == 20 {
			o.t.Fatalf("forced admits left %s feasible", id)
		}
		o.do("force", http.MethodPost, path+"/tasks", fmt.Sprintf(`{"task":%s,"force":true}`, o.task("force", true)), "")
	}
	o.migrateID(id)
	o.do("get", http.MethodGet, path, "", "")
	for _, r := range o.reps {
		if r.url == o.c.routeFor(id) {
			o.crashRestart(r)
		}
	}
	o.do("get", http.MethodGet, path, "", "")
}

// migrate force-moves a random session off its current holder.
func (o *oracle) migrate() {
	o.migrateID(o.ids[o.rng.Intn(len(o.ids))])
}

// migrateID force-moves session id off its current holder.
func (o *oracle) migrateID(id string) {
	holder := o.c.routeFor(id)
	var others []string
	for _, r := range o.reps {
		if r.url != holder {
			others = append(others, r.url)
		}
	}
	target := others[o.rng.Intn(len(others))]
	o.noteFailing(id)
	code, body, err := send(http.MethodPost, o.base+"/v1/cluster/migrate", fmt.Sprintf(`{"id":%q,"target":%q}`, id, target), "")
	if err != nil || code != http.StatusOK {
		o.t.Fatalf("op %d: migrate %s %s→%s: %d %s %v", o.op, id, holder, target, code, body, err)
	}
	o.injected["migrate"]++
}

func (o *oracle) rebalance() {
	code, body, err := send(http.MethodPost, o.base+"/v1/cluster/rebalance", "", "")
	if err != nil || code != http.StatusOK {
		o.t.Fatalf("op %d: rebalance: %d %s %v", o.op, code, body, err)
	}
	o.injected["rebalance"]++
}

// crashRestart kills a replica and brings it back from its data
// directory, then drops the keep-alive connections pooled in
// http.DefaultTransport, which the coordinator and the replicas' peer
// clients share. A request written into a connection to the dead process
// before its client noticed the close fails with EOF, and net/http
// retries no POST or DELETE, so the next op would read as a 502 that no
// state divergence caused.
func (o *oracle) crashRestart(r *testReplica) {
	for _, id := range o.ids {
		if o.c.routeFor(id) == r.url {
			o.noteFailing(id)
		}
	}
	r.crash(o.t)
	r.restart(o.t)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	o.injected["crash"]++
}

// crashUnderLoad crashes and restarts one replica while four clients
// keep reading sessions and admitting tail tasks through the
// coordinator. Afterwards every session must answer GET 200, holding
// every admit acknowledged with admitted:true and at most the admits
// whose outcome the crash left unknown.
func (o *oracle) crashUnderLoad() {
	t := o.t
	before := map[string]int{}
	for _, id := range o.ids {
		before[id] = len(o.state(id).Tasks)
	}
	var (
		mu            sync.Mutex
		acked, unsure = map[string]int{}, map[string]int{}
		done          atomic.Int64
		stop          = make(chan struct{})
		wg            sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := o.ids[(w+i)%len(o.ids)]
				if i%2 == 0 {
					send(http.MethodGet, o.base+"/v1/sessions/"+id, "", "")
				} else {
					body := fmt.Sprintf(`{"task":{"name":"load%d-%d","wcet":1,"period":1000}}`, w, i)
					code, resp, err := send(http.MethodPost, o.base+"/v1/sessions/"+id+"/tasks", body, "")
					var ar service.AdmissionResponse
					mu.Lock()
					switch {
					case err != nil || code != http.StatusOK:
						unsure[id]++
					case json.Unmarshal(resp, &ar) == nil && ar.Admitted:
						acked[id]++
					}
					mu.Unlock()
				}
				done.Add(1)
			}
		}(w)
	}
	waitFor := func(n int64) {
		for done.Load() < n {
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(40)
	victim := o.reps[o.rng.Intn(len(o.reps))]
	victim.crash(t)
	time.Sleep(20 * time.Millisecond)
	victim.restart(t)
	waitFor(done.Load() + 40)
	close(stop)
	wg.Wait()

	for _, id := range o.ids {
		code, body, err := send(http.MethodGet, o.base+"/v1/sessions/"+id, "", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("after crash under load, GET %s: %d %s %v", id, code, body, err)
		}
		var sr service.SessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		lo, hi := before[id]+acked[id], before[id]+acked[id]+unsure[id]
		if n := len(sr.Tasks); n < lo || n > hi {
			t.Errorf("session %s holds %d tasks after the crash, want %d..%d (%d before, %d acknowledged, %d unknown)",
				id, n, lo, hi, before[id], acked[id], unsure[id])
		}
	}
	t.Logf("crash under load: %d requests, acknowledged admits %v, unknown %v", done.Load(), acked, unsure)
}

// send issues one request; id, when set, becomes the X-Session-ID
// header. Unlike httpDo it never fails the test, so load goroutines can
// use it.
func send(method, url, body, id string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		req.Header.Set("X-Session-ID", id)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	return res.StatusCode, data, err
}
