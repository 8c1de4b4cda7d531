package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// conn is one client connection: a transport limited to a single TCP
// connection, so a run's connection count is exactly its goroutine count.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string, dials *atomic.Int64) *conn {
	var d net.Dialer
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one call and reads the whole response. A nonzero span tags
// the request for the traced run's server-side wrappers. The returned
// body is valid until the next do.
func (c *conn) do(cl *call, span uint64, header http.Header) (status int, body []byte, shard string, err error) {
	url := c.base + cl.path
	if span != 0 {
		url += "?" + spanParam + "=" + strconv.FormatUint(span, 10)
	}
	var rd io.Reader
	if cl.body != nil {
		rd = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, url, rd)
	if err != nil {
		return 0, nil, "", err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	return res.StatusCode, c.buf.Bytes(), res.Header.Get("X-Shard"), err
}

// expect sends a set-up or check request and insists on one status.
func (c *conn) expect(cl *call, header http.Header, code int) ([]byte, string, error) {
	st, body, shard, err := c.do(cl, 0, header)
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", cl.method, cl.path, err)
	}
	if st != code {
		return nil, "", fmt.Errorf("%s %s: status %d, want %d: %.200s", cl.method, cl.path, st, code, body)
	}
	return append([]byte(nil), body...), shard, nil
}

// rec is one request as the client saw it. Times are nanoseconds on the
// run's clock (see tracer.now).
type rec struct {
	c      *call
	due    int64 // when the request was due: its send time in a closed loop
	start  int64
	end    int64
	span   uint64 // nonzero when the request was traced
	bytes  int32
	round  int8 // -1 during warm-up
	shard  int8 // replica index from X-Shard; -1 when absent
	lead   bool // first request of an open-loop arrival
	failed bool
	got    verdict
}

// latency is what the end-to-end percentiles read: from the due time.
func (r *rec) latency() int64 { return r.end - r.due }

// tally accumulates one connection's requests as they complete. Only a
// traced run also keeps the records themselves (the replays need them),
// so an untraced run's memory does not grow with throughput.
type tally struct {
	lat, adm  [][]uint32 // per measured round: ns latency of every request, of single admits
	late      []uint32   // open loop: ns each arrival's first request was sent after its due time
	seen      int        // requests observed, warm-up included
	attempted int        // requests in measured rounds
	failed    int
	leads     int
	bytes     int64

	// The closed-loop oracle: served verdicts against scripted ones, and
	// which replica answered (cluster).
	checkVerdicts bool
	broken        bool // a request failed, so the session's state is unknown from here on
	mismatches    int
	firstMismatch string
	owner         []int8
	served        []int
	misrouted     int
	firstMisroute string
}

func newTally(rounds int, checkVerdicts bool, owner []int8, replicas int) *tally {
	return &tally{lat: make([][]uint32, rounds), adm: make([][]uint32, rounds),
		checkVerdicts: checkVerdicts, owner: owner, served: make([]int, replicas)}
}

func (t *tally) observe(r *rec) {
	t.seen++
	if t.checkVerdicts && !t.broken {
		if r.failed {
			t.broken = true
		} else if r.got != r.c.want {
			if t.mismatches == 0 {
				t.firstMismatch = fmt.Sprintf("%s %s (request %d): served %v, the engine answered %v", r.c.method, r.c.path, t.seen, r.got, r.c.want)
			}
			t.mismatches++
		}
	}
	if r.shard >= 0 && !r.failed {
		t.served[r.shard]++
		if r.shard != t.owner[r.c.sess] {
			if t.misrouted == 0 {
				t.firstMisroute = fmt.Sprintf("%s %s answered by replica %d, the session lives on %d", r.c.method, r.c.path, r.shard, t.owner[r.c.sess])
			}
			t.misrouted++
		}
	}
	if r.round < 0 {
		return
	}
	t.attempted++
	if r.failed {
		t.failed++
		return
	}
	ns := uint32(min(r.latency(), math.MaxUint32))
	t.lat[r.round] = append(t.lat[r.round], ns)
	if r.c.kind.singleAdmit() {
		t.adm[r.round] = append(t.adm[r.round], ns)
	}
	if r.lead {
		t.late = append(t.late, uint32(min(r.start-r.due, math.MaxUint32)))
		t.leads++
	}
	t.bytes += int64(r.bytes)
}

// okStatus reports whether a status is the expected answer to a call.
// A repartition plan may answer 409 while a force-admitted session has
// no armed engine, which the service documents as the correct answer.
func okStatus(k kind, st int) bool {
	return st == http.StatusOK || (k == kRepart && st == http.StatusConflict)
}

// send performs one timed call and fills in a record. A zero due time
// (closed loop) means the request is timed from its send.
func (c *conn) send(cl *call, tr *tracer, traced bool, shards map[string]int8, due int64, round int8) rec {
	r := rec{c: cl, due: due, round: round, shard: -1}
	if traced {
		r.span = tr.newID()
	}
	r.start = tr.now()
	if due == 0 {
		r.due = r.start
	}
	st, body, shard, err := c.do(cl, r.span, nil)
	r.end = tr.now()
	r.bytes = int32(len(body))
	r.failed = err != nil || !okStatus(cl.kind, st)
	if !r.failed {
		r.got = parseVerdict(body)
	}
	if shard != "" {
		if i, ok := shards[shard]; ok {
			r.shard = i
		}
	}
	return r
}
