package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partfeas/internal/cluster"
	"partfeas/internal/service"
)

// spanParam is the query parameter a traced request carries its span id
// in. The coordinator forwards queries verbatim; the replica wrapper
// strips it, so the service handler sees the untraced request.
const spanParam = "bench_span"

// span is one timed interval of one request. Replayed spans were timed
// off the clock after the run, by replaying the request's operation.
type span struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer owns the run's clock, span ids and in-memory spans.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span around every tagged request h serves. Untagged
// requests cost one string comparison.
func (t *tracer) wrap(name string, h http.Handler, strip bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery == "" {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get(spanParam), 10, 64)
		if err != nil || id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		if strip {
			r.URL.RawQuery = ""
			r.RequestURI = r.URL.RequestURI()
		}
		// The plain ResponseWriter hides ReadFrom: the coordinator's relay
		// would otherwise stream the body straight to the socket, letting
		// the caller finish before this span ends. Buffered, the response
		// leaves when the handler returns, as every small untraced one
		// does; the difference is part of the measured tracing overhead.
		start := t.now()
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
		t.add(span{Name: name, ID: id, Start: start, End: t.now()})
	})
}

// server is one component served on a loopback port.
type server struct {
	url     string
	hs      *http.Server
	done    chan error
	release func() error // closes the component behind the handler
	metrics func() string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, then releases the component.
func (s *server) stop() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if s.release != nil {
		err = errors.Join(err, s.release())
	}
	return err
}

// startReplica serves an admission-service replica at the serve command's
// defaults; dir non-empty makes it durable (WAL group commit every 5 ms,
// a snapshot every 1024 ops).
func startReplica(tr *tracer, dir string) (*server, error) {
	var srv *service.Server
	if dir == "" {
		srv = service.New(service.Config{})
	} else {
		var err error
		if srv, err = service.NewDurable(service.Config{DataDir: dir}); err != nil {
			return nil, err
		}
	}
	s, err := serve(tr.wrap("service", srv.Handler(), true))
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.release = srv.Close
	s.metrics = scraper(srv.Handler())
	return s, nil
}

// startCoordinator serves a cluster coordinator over the replicas at the
// serve command's defaults.
func startCoordinator(tr *tracer, replicas []string) (*server, error) {
	c := cluster.New(cluster.Config{Replicas: replicas})
	s, err := serve(tr.wrap("coordinator", c.Handler(), false))
	if err != nil {
		c.Close()
		return nil, err
	}
	s.release = c.Close
	s.metrics = scraper(c.Handler())
	return s, nil
}

// scraper reads a component's /metrics in process, off the clock.
func scraper(h http.Handler) func() string {
	return func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
}

// parseProm reads Prometheus text into "name{labels}" → value.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// sumProm adds every series whose name (before any label set) is name.
func sumProm(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
