package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"partfeas"
	"partfeas/internal/leakcheck"
)

// startSmokeServer binds an ephemeral port and serves in the background;
// the returned stop function drains gracefully and asserts the server
// exits with ErrServerClosed.
func startSmokeServer(t testing.TB, cfg Config) (*Server, string, func()) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := New(cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("graceful shutdown: %v", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return srv, "http://" + srv.Addr(), stop
}

// hardAnalyzeBody builds an /v1/analyze request whose exact adversary
// has a deliberately enormous search tree (30 near-symmetric tasks on 4
// machines, effectively unbounded node budget), so the request reliably
// outlives a client that hangs up after a few milliseconds.
func hardAnalyzeBody() string {
	var sb strings.Builder
	sb.WriteString(`{"tasks":[`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		period := int64(97 + 13*(i%7) + i)
		wcet := period*2/5 + int64(i%3)
		fmt.Fprintf(&sb, `{"name":"t%d","wcet":%d,"period":%d}`, i, wcet, period)
	}
	sb.WriteString(`],"speeds":[1,1,2,3],"exact_budget":1000000000000}`)
	return sb.String()
}

// scrapeMetric fetches /metrics and returns the value of the named
// sample (first token match).
func scrapeMetric(t testing.TB, client *http.Client, baseURL, name string) float64 {
	t.Helper()
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[0] != name {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, raw)
	return 0
}

// TestServeSmoke is the servesmoke gate: a real listener, concurrent
// clients whose responses must be byte-identical to direct library
// calls, a mid-flight client hang-up, a /metrics scrape counting every
// request, a graceful drain, and no goroutine leaks.
func TestServeSmoke(t *testing.T) {
	leakcheck.Check(t)
	_, baseURL, stop := startSmokeServer(t, Config{Logf: t.Logf})

	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	// Ground truth for every (instance, alpha) the clients will send.
	ins := demoInstances()
	alphas := []float64{1, 2}
	type query struct {
		body string
		want string
	}
	var queries []query
	for _, in := range ins {
		req := TestRequest{InstanceRequest: instanceRequestOf(in)}
		for _, alpha := range alphas {
			req.Alpha = alpha
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := partfeas.TestCtx(context.Background(), in, alpha)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(TestResponseFrom(rep)); err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{body: string(body), want: want.String()})
		}
	}

	// ≥8 concurrent clients, each cycling all queries several times.
	const clients = 8
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for qi, q := range queries {
					resp, err := client.Post(baseURL+"/v1/test", "application/json", strings.NewReader(q.body))
					if err != nil {
						errc <- err
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != 200 {
						errc <- fmt.Errorf("client %d query %d: status %d: %s", c, qi, resp.StatusCode, got)
						return
					}
					if string(got) != q.want {
						errc <- fmt.Errorf("client %d query %d: served %q != direct %q", c, qi, got, q.want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Mid-flight cancellation: a client hangs up a few ms into a huge
	// analyze; the server must record the abandonment and stay healthy.
	canceledOne := false
	for attempt := 0; attempt < 3 && !canceledOne; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(3*time.Millisecond, cancel)
		req, err := http.NewRequestWithContext(ctx, "POST", baseURL+"/v1/analyze", strings.NewReader(hardAnalyzeBody()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close() // finished before the hang-up; try again
		} else {
			canceledOne = true
		}
		timer.Stop()
		cancel()
	}
	if !canceledOne {
		t.Fatal("could not abandon an analyze mid-flight in 3 attempts")
	}
	deadline := time.Now().Add(5 * time.Second)
	for scrapeMetric(t, client, baseURL, "partfeas_http_requests_canceled_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("canceled request never counted in /metrics")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if served := scrapeMetric(t, client, baseURL, "partfeas_http_request_duration_seconds_count"); served < clients*rounds*float64(len(queries)) {
		t.Errorf("served count %v below client request count", served)
	}

	// Graceful drain; leakcheck's cleanup then asserts zero leaks.
	client.CloseIdleConnections()
	stop()
}

// instanceRequestOf converts a library instance to its wire form.
func instanceRequestOf(in partfeas.Instance) InstanceRequest {
	req := InstanceRequest{Tasks: make([]TaskJSON, len(in.Tasks)), Machines: make([]MachineJSON, len(in.Platform))}
	for i, tk := range in.Tasks {
		req.Tasks[i] = TaskJSON{Name: tk.Name, WCET: tk.WCET, Period: tk.Period}
	}
	for i, m := range in.Platform {
		req.Machines[i] = MachineJSON{Name: m.Name, Speed: m.Speed}
	}
	if in.Scheduler == partfeas.RMS {
		req.Scheduler = "rms"
	} else {
		req.Scheduler = "edf"
	}
	return req
}

// BenchmarkServeTest measures end-to-end /v1/test throughput and latency
// over a real socket, reporting p50/p99 and request rate via
// ReportMetric (benchjson records them in results/BENCH_4.json).
func BenchmarkServeTest(b *testing.B) {
	_, baseURL, stop := startSmokeServer(b, Config{})
	defer stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
	defer client.CloseIdleConnections()

	body := []byte(`{"tasks":[{"name":"video","wcet":9,"period":30},{"name":"audio","wcet":1,"period":4},` +
		`{"name":"net","wcet":3,"period":10},{"name":"ui","wcet":2,"period":12},{"name":"sensor","wcet":1,"period":20}],` +
		`"speeds":[1,1,4]}`)

	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		for pb.Next() {
			start := time.Now()
			resp, err := client.Post(baseURL+"/v1/test", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quant := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	b.ReportMetric(float64(quant(0.5))/float64(time.Microsecond), "p50-µs/op")
	b.ReportMetric(float64(quant(0.99))/float64(time.Microsecond), "p99-µs/op")
	b.ReportMetric(float64(len(lat))/b.Elapsed().Seconds(), "req/s")
}
