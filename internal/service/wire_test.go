package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"partfeas/internal/workload"
)

// streamJSON is the reference writer: the body json.NewEncoder(w).Encode
// streams straight into the response (empty when it refuses the value).
func streamJSON(v any) []byte {
	w := httptest.NewRecorder()
	_ = json.NewEncoder(w).Encode(v)
	return w.Body.Bytes()
}

// served is WriteJSON's body. It also checks that WriteJSON leaves the
// framing to net/http (no Content-Length of its own), as the streaming
// encoder did.
func served(t testing.TB, v any) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, v)
	if cl := w.Header().Get("Content-Length"); cl != "" {
		t.Fatalf("WriteJSON set Content-Length %q", cl)
	}
	return w.Body.Bytes()
}

// appended is a hot value's appendJSON output plus the Encoder's newline.
func appended(v any) ([]byte, bool) {
	var b []byte
	var ok bool
	switch r := v.(type) {
	case TestResponse:
		b, ok = r.appendJSON(nil)
	case TestSummary:
		b, ok = r.appendJSON(nil)
	case AdmissionResponse:
		b, ok = r.appendJSON(nil)
	case BatchAdmissionResponse:
		b, ok = r.appendJSON(nil)
	case SessionResponse:
		b, ok = r.appendJSON(nil)
	default:
		panic(fmt.Sprintf("no appender for %T", v))
	}
	return append(b, '\n'), ok
}

// wireGen draws wire values that reach every branch of the appenders:
// nil, empty and full slices, set and unset omitempty fields, floats in
// both notations (subnormals, negatives, the 1e-6 and 1e21 edges) and
// strings that need escaping (HTML characters, control bytes, non-ASCII,
// invalid UTF-8).
type wireGen struct{ rng *rand.Rand }

var stringPieces = []string{
	"a", "Z", "9", " ", "-", "_", "m0", "EDF", "video",
	"<", ">", "&", `"`, `\`, "\t", "\n", "\x00", "\x1f", "\x7f",
	"é", "\u2028", "\u2029", "日本", "\xff", "\xc3", "\xed\xa0\x80",
}

func (g wireGen) str() string {
	if g.rng.Intn(4) == 0 {
		return ""
	}
	plain := g.rng.Intn(2) == 0
	var sb strings.Builder
	for i := g.rng.Intn(6) + 1; i > 0; i-- {
		if plain {
			sb.WriteByte(byte(0x20 + g.rng.Intn(0x5f)))
			continue
		}
		sb.WriteString(stringPieces[g.rng.Intn(len(stringPieces))])
	}
	return sb.String()
}

func (g wireGen) float() float64 {
	sign := 1.0
	if g.rng.Intn(2) == 0 {
		sign = -1
	}
	switch g.rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * float64(g.rng.Intn(100))
	case 2:
		return sign * g.rng.Float64()
	case 3:
		return sign * math.Ldexp(g.rng.Float64(), g.rng.Intn(2100)-1075)
	case 4:
		edge := []float64{1e-6, 1e21, 1e-7, 1e20, 1e-5}[g.rng.Intn(5)]
		switch g.rng.Intn(3) {
		case 0:
			edge = math.Nextafter(edge, 0)
		case 1:
			edge = math.Nextafter(edge, math.Inf(1))
		}
		return sign * edge
	case 5:
		return sign * math.Float64frombits(g.rng.Uint64()&(1<<52-1)) // subnormal
	case 6:
		for {
			if f := math.Float64frombits(g.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	default:
		return sign * g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(40)-20))
	}
}

// size picks nil (-1), empty (0) or a short full slice.
func (g wireGen) size() int {
	switch g.rng.Intn(4) {
	case 0:
		return -1
	case 1:
		return 0
	}
	return 1 + g.rng.Intn(8)
}

func (g wireGen) int() int {
	if g.rng.Intn(4) == 0 {
		return -1 - g.rng.Intn(3)
	}
	return int(g.rng.Int63() >> g.rng.Intn(63))
}

// ints draws a nil, empty or short int slice.
func (g wireGen) ints() []int {
	n := g.size()
	if n < 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = g.int()
	}
	return vs
}

// floats draws a nil, empty or short float slice.
func (g wireGen) floats() []float64 {
	n := g.size()
	if n < 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = g.float()
	}
	return vs
}

func (g wireGen) test() TestResponse {
	return TestResponse{
		Accepted:   g.rng.Intn(2) == 0,
		Scheduler:  g.str(),
		Alpha:      g.float(),
		Assignment: g.ints(),
		Loads:      g.floats(),
		FailedTask: g.int(),
	}
}

func (g wireGen) summary() TestSummary {
	return TestSummary{
		Accepted:   g.rng.Intn(2) == 0,
		Scheduler:  g.str(),
		Alpha:      g.float(),
		Loads:      g.floats(),
		FailedTask: g.int(),
	}
}

func (g wireGen) admission() AdmissionResponse {
	r := AdmissionResponse{
		Admitted:   g.rng.Intn(2) == 0,
		RolledBack: g.rng.Intn(2) == 0,
		NTasks:     g.int(),
		Test:       g.summary(),
		Durability: g.str(),
	}
	if g.rng.Intn(2) == 0 { // a remove omits the field
		m := g.int()
		r.Machine = &m
	}
	return r
}

func (g wireGen) batch() BatchAdmissionResponse {
	r := BatchAdmissionResponse{
		Mode:       g.str(),
		Machines:   g.ints(),
		NAdmitted:  g.int(),
		NTasks:     g.int(),
		Test:       g.summary(),
		Durability: g.str(),
	}
	if n := g.size(); n >= 0 {
		r.Admitted = make([]bool, n)
		for i := range r.Admitted {
			r.Admitted[i] = g.rng.Intn(2) == 0
		}
	}
	return r
}

func (g wireGen) session() SessionResponse {
	r := SessionResponse{
		ID:            g.str(),
		Scheduler:     g.str(),
		Alpha:         g.float(),
		Placement:     g.str(),
		DeadlineModel: g.str(),
		Test:          g.test(),
		Durability:    g.str(),
	}
	if n := g.size(); n >= 0 {
		r.Tasks = make([]TaskJSON, n)
		for i := range r.Tasks {
			r.Tasks[i] = TaskJSON{Name: g.str(), WCET: int64(g.int()), Period: int64(g.int())}
			if g.rng.Intn(2) == 0 {
				r.Tasks[i].Deadline = int64(g.int())
			}
		}
	}
	if n := g.size(); n >= 0 {
		r.Machines = make([]MachineJSON, n)
		for i := range r.Machines {
			r.Machines[i] = MachineJSON{Name: g.str(), Speed: g.float()}
		}
	}
	return r
}

// checkWire compares one value's appended and served bytes with
// encoding/json's.
func checkWire(t testing.TB, v any) {
	t.Helper()
	want := streamJSON(v)
	got, ok := appended(v)
	switch {
	case ok && !bytes.Equal(got, want):
		t.Fatalf("%T %+v:\nappendJSON %s\nencoding/json %s", v, v, got, want)
	case !ok && len(want) != 0:
		t.Fatalf("%T %+v: appendJSON refused a value encoding/json encodes as %s", v, v, want)
	}
	if got := served(t, v); !bytes.Equal(got, want) {
		t.Fatalf("%T %+v:\nWriteJSON %s\nencoding/json %s", v, v, got, want)
	}
}

// TestWireEncodingDifferential holds each hot response type's appender
// to encoding/json, byte for byte, on 10k seeded random values.
func TestWireEncodingDifferential(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(15))}
	for name, draw := range map[string]func() any{
		"test":      func() any { return g.test() },
		"summary":   func() any { return g.summary() },
		"admission": func() any { return g.admission() },
		"batch":     func() any { return g.batch() },
		"session":   func() any { return g.session() },
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10000; i++ {
				checkWire(t, draw())
			}
		})
	}
}

// TestWireEncodingNonFinite pins the fallback: a NaN or ±Inf anywhere in
// a hot value makes appendJSON refuse it, and WriteJSON then answers
// exactly what the streaming encoder did, an empty body.
func TestWireEncodingNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := TestResponse{Scheduler: "EDF", Alpha: 1, Assignment: []int{0}, Loads: []float64{0.5}}
		bad := tr
		bad.Loads = []float64{0.5, f}
		badSum := TestSummary{Scheduler: "EDF", Alpha: 1, Loads: []float64{f, 0.5}}
		m := 0
		for _, v := range []any{
			TestResponse{Alpha: f},
			bad,
			TestSummary{Alpha: f},
			badSum,
			AdmissionResponse{Test: badSum},
			AdmissionResponse{Machine: &m, Test: TestSummary{Alpha: f}},
			BatchAdmissionResponse{Machines: []int{0}, Test: badSum},
			SessionResponse{Alpha: f, Test: tr},
			SessionResponse{Machines: []MachineJSON{{Speed: f}}, Test: tr},
			SessionResponse{Test: bad},
		} {
			if _, ok := appended(v); ok {
				t.Fatalf("%T %+v: appendJSON accepted a non-finite float", v, v)
			}
			checkWire(t, v)
			if got := served(t, v); len(got) != 0 {
				t.Fatalf("%T: served %q, want an empty body", v, got)
			}
		}
	}
}

// TestWriteJSONColdPath checks that the types without an appender
// (encoding/json through the pooled buffer) keep their bytes.
func TestWriteJSONColdPath(t *testing.T) {
	for _, v := range []any{
		ErrorResponse{Error: "bad <input> & \"quotes\""},
		map[string]any{"status": "ok", "role": "coordinator"},
		MinAlphaResponse{Alpha: 1e-7, OK: true},
	} {
		if got, want := served(t, v), streamJSON(v); !bytes.Equal(got, want) {
			t.Fatalf("%T: WriteJSON %s, encoding/json %s", v, got, want)
		}
	}
}

// FuzzWireEncoding drives the appenders with fuzzer-chosen strings,
// float bits and integers, against encoding/json.
func FuzzWireEncoding(f *testing.F) {
	f.Add("m0", "EDF", 1.0, 0.25, int64(3), uint8(0))
	f.Add("<&>\"\\\t", "\xff\u2028", 1e-7, -1e21, int64(-1), uint8(0xff))
	f.Add("", "", 5e-324, math.MaxFloat64, int64(math.MinInt64), uint8(0x55))
	f.Fuzz(func(t *testing.T, name, sched string, a, b float64, n int64, flags uint8) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		tr := TestResponse{Accepted: bit(0), Scheduler: sched, Alpha: a, FailedTask: int(n)}
		if bit(1) {
			tr.Assignment = []int{int(n), 0, -1}
			tr.Loads = []float64{a, b}
		} else if bit(2) {
			tr.Assignment, tr.Loads = []int{}, []float64{}
		}
		sum := TestSummary{Accepted: tr.Accepted, Scheduler: sched, Alpha: b, Loads: tr.Loads, FailedTask: int(n)}
		dur := ""
		if bit(3) {
			dur = name
		}
		sr := SessionResponse{ID: name, Scheduler: sched, Alpha: b, Placement: name, Test: tr, Durability: dur}
		if bit(4) {
			sr.DeadlineModel = sched
			sr.Tasks = []TaskJSON{{Name: name, WCET: n, Period: n + 1}, {WCET: 1, Period: 2, Deadline: n}}
			sr.Machines = []MachineJSON{{Name: sched, Speed: b}, {Speed: a}}
		}
		br := BatchAdmissionResponse{Mode: sched, NAdmitted: int(n), NTasks: 2, Test: sum, Durability: dur}
		if bit(5) {
			br.Admitted = []bool{bit(6), bit(7)}
			br.Machines = []int{int(n), -1}
		} else if bit(6) {
			br.Admitted, br.Machines = []bool{}, []int{}
		}
		ar := AdmissionResponse{Admitted: bit(6), RolledBack: bit(7), NTasks: int(n), Test: sum, Durability: dur}
		if bit(3) != bit(5) { // a remove omits the machine
			m := int(n)
			ar.Machine = &m
		}
		for _, v := range []any{tr, sum, sr, br, ar} {
			checkWire(t, v)
		}
	})
}

// bigSession opens an n-task first_fit_sorted session on 64 unit-speed
// machines (the benchmark's admit-large shape) and returns its id.
func bigSession(t testing.TB, s *Server, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"tasks":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"wcet":%d,"period":%d}`, 1+i%7, 1000+i%900)
	}
	sb.WriteString(`],"speeds":[1` + strings.Repeat(",1", 63) + `],"placement":"first_fit_sorted"}`)
	w := do(t, s, http.MethodPost, "/v1/sessions", sb.String())
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %.200s", w.Code, w.Body)
	}
	var resp SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// tailAdmit is a task whose utilization sorts after every resident one,
// so the sorted engine places it without a suffix replay.
const tailAdmit = `{"task":{"wcet":1,"period":1048576}}`

// discard is a ResponseWriter that keeps only the status code, so a
// measurement counts the handler's allocations, not a recorder's.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// TestAdmitRemoveAllocs guards the served mutation path against O(n)
// garbage: a tail admit → remove cycle through the handler must allocate
// no more on an n = 10,000 sorted session than twice what it allocates on
// an n = 100 one. The mutation responses carry no assignment, so nothing
// in the cycle should grow with the task count. A rejected admit is held
// to the same bound, and to 4 KB at n = 1,000: the engine refuses it
// without a witness assignment (online.Engine.AdmitSummary).
func TestAdmitRemoveAllocs(t *testing.T) {
	small, large := admitRemoveBytes(t, 100), admitRemoveBytes(t, 10000)
	t.Logf("admit→remove: %d B/cycle at n=100, %d B/cycle at n=10000 (bound %d)", small, large, 2*small)
	if large > 2*small {
		t.Fatalf("admit→remove allocates %d B per cycle at n=10000, want ≤ %d (twice the n=100 cycle)", large, 2*small)
	}
	r100, r1000, r10000 := rejectBytes(t, 100), rejectBytes(t, 1000), rejectBytes(t, 10000)
	t.Logf("rejected admit: %d / %d / %d B at n=100 / 1000 / 10000", r100, r1000, r10000)
	if r10000 > 2*r100 || r1000 > 4096 {
		t.Fatalf("a rejected admit allocates %d B at n=10000 (want ≤ %d, twice n=100) and %d B at n=1000 (want ≤ 4096)", r10000, 2*r100, r1000)
	}
}

// rejectBytes is the bytes one rejected admit allocates through the
// handler on an n-task bigSession: a utilization-3 task sorts first and
// no speed-1 machine takes it. Averaged over 20 admits after a warm-up.
func rejectBytes(t *testing.T, n int) uint64 {
	t.Helper()
	s := newTestServer(t)
	path := "/v1/sessions/" + bigSession(t, s, n) + "/tasks"
	h := s.Handler()
	const warm, admits = 3, 20
	var reqs []*http.Request
	for i := 0; i < warm+admits; i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"task":{"wcet":300,"period":100}}`)))
	}
	w := &discard{h: http.Header{}}
	for i := 0; i < warm; i++ {
		h.ServeHTTP(w, reqs[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+admits; i++ {
		h.ServeHTTP(w, reqs[i])
	}
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK {
		t.Fatalf("n=%d: rejected admit: status %d", n, w.code)
	}
	return (after.TotalAlloc - before.TotalAlloc) / admits
}

// admitRemoveBytes is the bytes one tail admit → remove cycle allocates
// through the handler on an n-task bigSession, averaged over 20 cycles
// after a warm-up that fills the body pool.
func admitRemoveBytes(t *testing.T, n int) uint64 {
	t.Helper()
	s := newTestServer(t)
	id := bigSession(t, s, n)
	sess, err := s.sessions.get(id)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	base := "/v1/sessions/" + id
	removePath := fmt.Sprintf("%s/tasks/%d", base, n)
	const warm, cycles = 3, 20
	var admits, removes []*http.Request
	for i := 0; i < warm+cycles; i++ {
		admits = append(admits, httptest.NewRequest(http.MethodPost, base+"/tasks", strings.NewReader(tailAdmit)))
		removes = append(removes, httptest.NewRequest(http.MethodDelete, removePath, nil))
	}
	w := &discard{h: http.Header{}}
	for i := 0; i < warm; i++ {
		h.ServeHTTP(w, admits[i])
		sess.mu.Lock()
		tail := sess.eng.LastOpStats().Tail
		sess.mu.Unlock()
		if w.code != http.StatusOK || !tail {
			t.Fatalf("n=%d: warm-up admit %d: status %d, tail %v", n, i, w.code, tail)
		}
		h.ServeHTTP(w, removes[i])
		if w.code != http.StatusOK {
			t.Fatalf("n=%d: warm-up remove %d: status %d", n, i, w.code)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+cycles; i++ {
		h.ServeHTTP(w, admits[i])
		h.ServeHTTP(w, removes[i])
	}
	runtime.ReadMemStats(&after)
	sess.mu.Lock()
	tasks := len(sess.in.Tasks)
	sess.mu.Unlock()
	if w.code != http.StatusOK || tasks != n {
		t.Fatalf("n=%d: after the cycles: status %d, %d tasks resident", n, w.code, tasks)
	}
	return (after.TotalAlloc - before.TotalAlloc) / cycles
}

// BenchmarkHandlerAdmitRemove is ladder row L3 on the admit-large shape
// at three session sizes: one tail admit → remove cycle per iteration,
// through the handler with httptest requests and recorders, no socket.
// ns/op and allocated bytes stay flat across n: the mutation responses
// carry the m-entry loads, not the n-entry assignment.
func BenchmarkHandlerAdmitRemove(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := newTestServer(b)
			id := bigSession(b, s, n)
			h := s.Handler()
			base := "/v1/sessions/" + id
			removePath := fmt.Sprintf("%s/tasks/%d", base, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, base+"/tasks", strings.NewReader(tailAdmit)))
				if w.Code != http.StatusOK {
					b.Fatalf("admit: %d %s", w.Code, w.Body)
				}
				w = httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, removePath, nil))
				if w.Code != http.StatusOK {
					b.Fatalf("remove: %d %s", w.Code, w.Body)
				}
			}
		})
	}
}

// openTestBody draws one /v1/test body in tenants-open's shape: n 8–32
// tasks, m 4–8 machines with speeds U[0.5, 2.5], total utilization 0.3–0.9
// of the total speed spread by UUniFast, periods log-uniform in
// [10, 1000].
func openTestBody(tb testing.TB, rng *workload.RNG) []byte {
	tb.Helper()
	n, m := 8+rng.Intn(25), 4+rng.Intn(5)
	var req TestRequest
	var total float64
	for j := 0; j < m; j++ {
		req.Speeds = append(req.Speeds, rng.Range(0.5, 2.5))
		total += req.Speeds[j]
	}
	us, err := workload.UUniFast(rng, n, rng.Range(0.3, 0.9)*total)
	if err != nil {
		tb.Fatal(err)
	}
	for _, u := range us {
		per, err := workload.LogUniformPeriod(rng, 10, 1000)
		if err != nil {
			tb.Fatal(err)
		}
		req.Tasks = append(req.Tasks, TaskJSON{WCET: max(1, int64(math.Round(u*float64(per)))), Period: per})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkHandlerTest is the stateless /v1/test endpoint through the
// handler with httptest requests and recorders, no socket. repeat sends
// one instance every iteration; mix is tenants-open's test traffic, 80%
// drawn from a working set of 256 instances and 20% fresh ones.
func BenchmarkHandlerTest(b *testing.B) {
	run := func(b *testing.B, bodies [][]byte) {
		h := newTestServer(b).Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/test", bytes.NewReader(bodies[i])))
			if w.Code != http.StatusOK {
				b.Fatalf("test: %d %s", w.Code, w.Body)
			}
		}
	}
	b.Run("repeat", func(b *testing.B) {
		body := openTestBody(b, workload.NewRNG(1))
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = body
		}
		run(b, bodies)
	})
	b.Run("mix", func(b *testing.B) {
		rng := workload.NewRNG(2)
		working := make([][]byte, 256)
		for i := range working {
			working[i] = openTestBody(b, rng)
		}
		bodies := make([][]byte, b.N)
		for i := range bodies {
			if rng.Intn(5) == 0 {
				bodies[i] = openTestBody(b, rng)
			} else {
				bodies[i] = working[rng.Intn(len(working))]
			}
		}
		run(b, bodies)
	})
}
