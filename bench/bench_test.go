package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"partfeas/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/offline_digest.txt from the current kernels")

// TestOfflineDigest pins the offline kernels' verdicts on the reference
// stream; run with -update after an intended verdict change.
func TestOfflineDigest(t *testing.T) {
	got, err := referenceDigest()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(fmt.Sprintf("%016x\n", got)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := recordedDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reference digest %016x, %s records %016x", got, digestFile, want)
	}
}

// TestOracleRejectsDoctoredVerdict shows both oracle checks fail on a
// single wrong answer: one served verdict, and one byte of a final
// state's test block.
func TestOracleRejectsDoctoredVerdict(t *testing.T) {
	spec := loadedSpec(rand.New(rand.NewSource(3)), "s", 4, 16, 0.5, 2.5)
	cy, err := newCycler(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := script(rand.New(rand.NewSource(4)), []*cycler{cy}, 50)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{})
	h := srv.Handler()
	serveCall := func(c *call, hdr http.Header) *httptest.ResponseRecorder {
		req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
		for k, v := range hdr {
			req.Header[k] = v
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	if w := serveCall(&call{method: "POST", path: "/v1/sessions", body: spec.createBody()}, http.Header{"X-Session-Id": {"s"}}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	recs := make([]rec, len(sc))
	for i, c := range sc {
		w := serveCall(c, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.method, c.path, w.Code, w.Body)
		}
		recs[i] = rec{c: c, round: -1, shard: -1, got: parseVerdict(w.Body.Bytes())}
	}
	mismatches := func() int {
		tl := newTally(0, true, nil, 0)
		for i := range recs {
			tl.observe(&recs[i])
		}
		return tl.mismatches
	}
	if n := mismatches(); n != 0 {
		t.Fatalf("%d served verdicts differ from the script", n)
	}
	recs[len(recs)/2].got.accepted ^= 1
	if mismatches() != 1 {
		t.Fatal("a doctored verdict passed the oracle")
	}

	body := serveCall(getCall(spec, 0), nil).Body.Bytes()
	if err := checkFinal(body, spec.tasks); err != nil {
		t.Fatalf("final state: %v", err)
	}
	doctored := bytes.Replace(body, []byte(`"failed_task":-1`), []byte(`"failed_task":0`), 1)
	if bytes.Equal(doctored, body) {
		t.Fatal("test setup: no failed_task field to doctor")
	}
	if err := checkFinal(doctored, spec.tasks); err == nil {
		t.Fatal("a doctored final state passed the oracle")
	}
}

// TestScheduleDeterminism: the seed alone fixes every request a run
// sends, and another seed changes them.
func TestScheduleDeterminism(t *testing.T) {
	cfg := &config{seconds: 1}
	sz := sizesFor(true)
	digest := func(seed int64) (uint64, string) {
		specs, err := tenantSpecs(rand.New(rand.NewSource(seed)), sz.tenants, sz.tenantMaxN)
		if err != nil {
			t.Fatal(err)
		}
		_, _, byRank := tenantLayout(sz.tenants, sz.tenantMaxN)
		open := scheduleDigest(tenantSchedule(seed, specs, byRank, sz.testSet, openPlan(cfg, sz)))
		cy, err := newCycler(largeSpec("large-0"), 0)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := script(rand.New(rand.NewSource(seed)), []*cycler{cy}, 200)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range sc {
			fmt.Fprintf(&b, "%s %s %s %v\n", c.method, c.path, c.body, c.want)
		}
		return open, b.String()
	}
	o1, c1 := digest(7)
	o2, c2 := digest(7)
	o3, c3 := digest(8)
	if o1 != o2 || c1 != c2 {
		t.Fatal("the same seed drew different requests")
	}
	if o1 == o3 || c1 == c3 {
		t.Fatal("different seeds drew the same requests")
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks the contract: every metric BENCHMARK.json names is printed with
// its unit, nothing failed, and the oracle passed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	start := time.Now()
	for _, w := range doc.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: w.Name, seed: 1, seconds: 0.3, trace: traced, workDir: t.TempDir(), toy: true}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			var out bytes.Buffer
			res.print(&out, traced)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := doc.EndToEnd
			if traced {
				want = doc.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, over its 15 s budget", d)
	}
}
