package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partfeas/internal/cluster"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time, split into rounds
	trace    bool
	traceOut string // directory for the span file; empty writes none
	workDir  string // where durable replicas keep their data
	toy      bool   // smoke-test sizes
}

// sizes scales a run: full for measurement, toy for the smoke test.
type sizes struct {
	warmup      time.Duration
	round       time.Duration
	setups      int
	cycles      int // closed-loop op cycles scripted per connection
	tenants     int
	tenantMaxN  int
	testSet     int
	offlinePool int
	rateScale   float64 // tenants-open runs at rateScale × (loRate, hiRate)
}

func sizesFor(toy bool) sizes {
	if toy {
		// A tenth of the rates keeps the smoke test's open loop below
		// capacity under the race detector too.
		return sizes{round: 75 * time.Millisecond, setups: 1, cycles: 40, tenants: 8, tenantMaxN: 60, testSet: 16, offlinePool: 32, rateScale: 0.1}
	}
	return sizes{warmup: 2 * time.Second, round: time.Second, setups: 5, cycles: 4000, tenants: 64, tenantMaxN: 500, testSet: 256, offlinePool: 4096, rateScale: 1}
}

// rounds is how many rounds the measured seconds split into: an even
// number, so the open loop spends as long at each of its two rates.
func (sz sizes) rounds(cfg *config) int {
	n := int(cfg.seconds/sz.round.Seconds() + 0.5)
	return max(2, n+n%2)
}

// workloads names every workload, in run order.
var workloads = []string{"admit-large", "admit-cluster-wal", "tenants-open", "offline-sweep"}

// nConns is the client's connection count: one per vCPU of the 2-vCPU
// machine the baselines were measured on.
const nConns = 2

func runWorkload(cfg *config) (*result, error) {
	sz := sizesFor(cfg.toy)
	res := newResult(cfg.workload)
	switch cfg.workload {
	case "offline-sweep":
		runOffline(cfg, sz, res)
	case "admit-large", "admit-cluster-wal", "tenants-open":
		if err := runServer(cfg, sz, res); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	rss := peakRSSMiB()
	res.e2e["peak_rss_mb"] = stat{value: rss, rounds: []float64{rss}, samples: 1}
	return res, nil
}

// env is one set-up of a server workload: the servers, the sessions on
// them and the requests that will drive them.
type env struct {
	servers  []*server // replicas, then the coordinator
	replicas int
	target   string
	specs    []*sessionSpec
	shards   map[string]int8 // replica URL → index
	owner    []int8          // replica each session was placed on
	dir      string
	scripts  [][]*call   // closed loop: one per connection
	plan     []openRound // open loop: warm-up first
}

func (e *env) close() error {
	var err error
	for i := len(e.servers) - 1; i >= 0; i-- {
		err = errors.Join(err, e.servers[i].stop())
	}
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

func (e *env) startReplicas(tr *tracer, n int, durable bool) error {
	e.shards = map[string]int8{}
	for i := 0; i < n; i++ {
		dir := ""
		if durable {
			dir = filepath.Join(e.dir, "r"+strconv.Itoa(i))
		}
		s, err := startReplica(tr, dir)
		if err != nil {
			return err
		}
		e.servers = append(e.servers, s)
		e.shards[s.url] = int8(i)
	}
	e.replicas = n
	e.target = e.servers[0].url
	return nil
}

// createSessions opens every session under its own id and records the
// replica that answered.
func (e *env) createSessions(dials *atomic.Int64) error {
	c := newConn(e.target, dials)
	defer c.close()
	e.owner = make([]int8, len(e.specs))
	for i, s := range e.specs {
		cl := &call{method: "POST", path: "/v1/sessions", body: s.createBody()}
		_, shard, err := c.expect(cl, http.Header{"X-Session-Id": {s.id}}, http.StatusCreated)
		if err != nil {
			return err
		}
		e.owner[i] = e.shards[shard]
	}
	return nil
}

type setupFunc func(cfg *config, sz sizes, tr *tracer, dials *atomic.Int64) (*env, error)

// setupLarge: one non-durable replica, two first_fit_sorted sessions on
// the m=64, n=1000 instance, one per connection.
func setupLarge(cfg *config, sz sizes, tr *tracer, dials *atomic.Int64) (*env, error) {
	e := &env{}
	if err := e.startReplicas(tr, 1, false); err != nil {
		return e, err
	}
	for i := 0; i < nConns; i++ {
		e.specs = append(e.specs, largeSpec("large-"+strconv.Itoa(i)))
	}
	if err := e.createSessions(dials); err != nil {
		return e, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i, s := range e.specs {
		cy, err := newCycler(s, i)
		if err != nil {
			return e, err
		}
		sc, err := script(rng, []*cycler{cy}, sz.cycles)
		if err != nil {
			return e, err
		}
		e.scripts = append(e.scripts, sc)
	}
	return e, nil
}

// setupCluster: two durable replicas behind a coordinator, eight m=4,
// n=16 sessions whose ids the ring places four on each replica; each
// connection round-robins over four of them, two per replica.
func setupCluster(cfg *config, sz sizes, tr *tracer, dials *atomic.Int64) (*env, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if err := e.startReplicas(tr, 2, true); err != nil {
		return e, err
	}
	urls := make([]string, e.replicas)
	for u, i := range e.shards {
		urls[i] = u
	}
	co, err := startCoordinator(tr, urls)
	if err != nil {
		return e, err
	}
	e.servers = append(e.servers, co)
	e.target = co.url
	ring := cluster.NewRing(urls, cluster.DefaultVNodes)
	rng := rand.New(rand.NewSource(cfg.seed))
	var want []int8
	for k := 0; len(e.specs) < 4*nConns; k++ {
		id := "wal-" + strconv.Itoa(k)
		if o := e.shards[ring.Owner(id)]; o == int8(len(e.specs)%2) {
			e.specs = append(e.specs, loadedSpec(rng, id, 4, 16, 0.5, 2.5))
			want = append(want, o)
		}
	}
	if err := e.createSessions(dials); err != nil {
		return e, err
	}
	for i := range want {
		if e.owner[i] != want[i] {
			return e, fmt.Errorf("session %s landed on replica %d, the ring owner is %d", e.specs[i].id, e.owner[i], want[i])
		}
	}
	for c := 0; c < nConns; c++ {
		var cys []*cycler
		for i := 4 * c; i < 4*c+4; i++ {
			cy, err := newCycler(e.specs[i], i)
			if err != nil {
				return e, err
			}
			cys = append(cys, cy)
		}
		sc, err := script(rng, cys, sz.cycles)
		if err != nil {
			return e, err
		}
		e.scripts = append(e.scripts, sc)
	}
	return e, nil
}

// setupTenants: one durable replica with the tenant sessions, and the
// whole open-loop schedule drawn up front.
func setupTenants(cfg *config, sz sizes, tr *tracer, dials *atomic.Int64) (*env, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "tenants-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if err := e.startReplicas(tr, 1, true); err != nil {
		return e, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if e.specs, err = tenantSpecs(rng, sz.tenants, sz.tenantMaxN); err != nil {
		return e, err
	}
	if err := e.createSessions(dials); err != nil {
		return e, err
	}
	_, _, byRank := tenantLayout(sz.tenants, sz.tenantMaxN)
	e.plan = tenantSchedule(cfg.seed, e.specs, byRank, sz.testSet, openPlan(cfg, sz))
	return e, nil
}

// openPlan lays out tenants-open's rounds: the warm-up at the low rate,
// then rounds alternating the low and high rates. A traced run traces
// every other pair of rounds, so each rate has traced and untraced ones.
func openPlan(cfg *config, sz sizes) []openRound {
	var plan []openRound
	if sz.warmup > 0 {
		plan = append(plan, openRound{round: -1, rate: loRate * sz.rateScale, dur: sz.warmup})
	}
	for i := 0; i < sz.rounds(cfg); i++ {
		rate := loRate * sz.rateScale
		if i%2 == 1 {
			rate = hiRate * sz.rateScale
		}
		plan = append(plan, openRound{round: int8(i), rate: rate, dur: sz.round, traced: cfg.trace && (i/2)%2 == 1})
	}
	return plan
}

// runServer runs one server workload end to end: set-ups, warm-up,
// measured rounds, the oracle and, when tracing, the per-layer analysis.
func runServer(cfg *config, sz sizes, res *result) (err error) {
	setup := map[string]setupFunc{"admit-large": setupLarge, "admit-cluster-wal": setupCluster, "tenants-open": setupTenants}[cfg.workload]
	tr := newTracer()
	var dials atomic.Int64
	var e *env
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		e, err = setup(cfg, sz, tr, &dials)
		if err != nil {
			if e != nil {
				err = errors.Join(err, e.close())
			}
			return fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, e.close()) }()
	res.e2e["setup_s"] = stat{value: median(setups), rounds: setups, samples: len(setups)}

	dials.Store(0)
	conns := make([]*conn, nConns)
	for i := range conns {
		conns[i] = newConn(e.target, &dials)
		defer conns[i].close()
	}
	var run *measured
	if e.scripts != nil {
		run = driveClosed(cfg, sz, e, conns, tr)
	} else {
		run = driveOpen(cfg, sz, e, conns, tr)
	}
	run.dials = dials.Load()
	summarize(res, run)
	oracle(res, e, run, &dials)
	if cfg.trace {
		analyzeTrace(cfg, res, e, run, tr)
	}
	return nil
}

// measured is what a driver hands back: each connection's tally, the
// records themselves in a traced run, and the context the metrics need.
type measured struct {
	tallies    []*tally
	recs       [][]rec // every request per connection, in order; traced runs only
	roundSecs  []float64
	open       bool // open loop: even rounds at the low rate, odd at the high
	traced     []bool
	host       []hostSample
	before     []map[string]float64 // scrapes bracketing the measured rounds, per server
	after      []map[string]float64
	unsent     int
	backlogMax int64
	dials      int64
}

func newMeasured(cfg *config, sz sizes, e *env) *measured {
	m := &measured{recs: make([][]rec, nConns)}
	for i := 0; i < nConns; i++ {
		m.tallies = append(m.tallies, newTally(sz.rounds(cfg), e.scripts != nil, e.owner, e.replicas))
	}
	return m
}

// record files one completed request of connection i.
func (m *measured) record(cfg *config, i int, r rec) {
	m.tallies[i].observe(&r)
	if cfg.trace {
		m.recs[i] = append(m.recs[i], r)
	}
}

func scrapeAll(e *env) []map[string]float64 {
	out := make([]map[string]float64, len(e.servers))
	for i, s := range e.servers {
		out[i] = parseProm(s.metrics())
	}
	return out
}

// closedDriver runs each connection through its script, one request at
// a time, continuing where the previous round stopped.
type closedDriver struct {
	cfg     *config
	conns   []*conn
	scripts [][]*call
	pos     []int
	m       *measured
}

func (d *closedDriver) run(tr *tracer, shards map[string]int8, dur time.Duration, round int8, traced bool) {
	deadline := tr.now() + int64(dur)
	var wg sync.WaitGroup
	for i := range d.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := d.scripts[i]
			for tr.now() < deadline {
				cl := sc[d.pos[i]%len(sc)]
				d.pos[i]++
				d.m.record(d.cfg, i, d.conns[i].send(cl, tr, traced, shards, 0, round))
			}
		}(i)
	}
	wg.Wait()
}

func driveClosed(cfg *config, sz sizes, e *env, conns []*conn, tr *tracer) *measured {
	m := newMeasured(cfg, sz, e)
	d := &closedDriver{cfg: cfg, conns: conns, scripts: e.scripts, pos: make([]int, len(conns)), m: m}
	if sz.warmup > 0 {
		d.run(tr, e.shards, sz.warmup, -1, false)
	}
	m.before = scrapeAll(e)
	for r := 0; r < sz.rounds(cfg); r++ {
		m.host = append(m.host, measureHost())
		traced := cfg.trace && r%2 == 1
		t0 := tr.now()
		d.run(tr, e.shards, sz.round, int8(r), traced)
		m.roundSecs = append(m.roundSecs, float64(tr.now()-t0)/1e9)
		m.traced = append(m.traced, traced)
	}
	m.after = scrapeAll(e)
	d.finishCycles(tr, e.shards)
	return m
}

// finishCycles completes each connection's cycle in progress, off the
// clock, so every session is back at its initial state for the oracle.
func (d *closedDriver) finishCycles(tr *tracer, shards map[string]int8) {
	for i, sc := range d.scripts {
		for !sc[d.pos[i]%len(sc)].cycle {
			d.m.record(d.cfg, i, d.conns[i].send(sc[d.pos[i]%len(sc)], tr, false, shards, 0, -1))
			d.pos[i]++
		}
	}
}

func driveOpen(cfg *config, sz sizes, e *env, conns []*conn, tr *tracer) *measured {
	m := newMeasured(cfg, sz, e)
	m.open = true
	d := &openDriver{cfg: cfg, conns: conns, specs: e.specs, m: m}
	for range e.specs {
		d.turns = append(d.turns, newTurn())
	}
	for i := range e.plan {
		rd := &e.plan[i]
		if rd.round == 0 {
			m.before = scrapeAll(e)
			d.backlogMax.Store(0)
		}
		if rd.round >= 0 {
			m.host = append(m.host, measureHost())
		}
		t0 := tr.now()
		d.run(tr, rd)
		if rd.round >= 0 {
			m.roundSecs = append(m.roundSecs, float64(tr.now()-t0)/1e9)
			m.traced = append(m.traced, rd.traced)
		}
	}
	m.after = scrapeAll(e)
	m.unsent = int(d.unsent.Load())
	m.backlogMax = d.backlogMax.Load()
	return m
}

// summarize computes the end-to-end metrics, per round and then over
// rounds (see setRounds). A closed loop times requests from their send;
// the open loop from their due time, at the low rate, with the high
// rate's p99 reported as latency.p99_us_hi.
func summarize(res *result, m *measured) {
	n := len(m.roundSecs)
	lat := make([][]float64, n)
	adm := make([][]float64, n)
	var late []float64
	var leads int
	var bytes, reqs int64
	for _, t := range m.tallies {
		res.attempted += t.attempted
		res.failed += t.failed
		for r := 0; r < n; r++ {
			lat[r] = appendUS(lat[r], t.lat[r])
			adm[r] = appendUS(adm[r], t.adm[r])
			reqs += int64(len(t.lat[r]))
		}
		late = appendUS(late, t.late)
		leads += t.leads
		bytes += t.bytes
	}
	res.attempted += m.unsent
	res.failed += m.unsent
	var ops, p50, p99, a50, a99, hi99 []float64
	var samples, aSamples int
	for r := 0; r < n; r++ {
		if m.open && r%2 == 1 {
			hi99 = append(hi99, quantile(lat[r], 0.99))
			continue
		}
		ops = append(ops, float64(len(lat[r]))/m.roundSecs[r])
		p50, p99 = append(p50, quantile(lat[r], 0.5)), append(p99, quantile(lat[r], 0.99))
		a50, a99 = append(a50, quantile(adm[r], 0.5)), append(a99, quantile(adm[r], 0.99))
		samples += len(lat[r])
		aSamples += len(adm[r])
	}
	res.setRounds("ops_per_s", ops, samples)
	res.setRounds("p50_us", p50, samples)
	setLatencies(res, a50, p99, a99, hi99, aSamples)

	setHost(res, m.host)
	res.layer["gen.late_p50_us"] = quantile(late, 0.5)
	res.layer["gen.late_p99_us"] = quantile(late, 0.99)
	res.layer["gen.backlog_max"] = float64(m.backlogMax)
	var total float64
	for _, s := range m.roundSecs {
		total += s
	}
	if m.open {
		res.layer["gen.achieved_per_s"] = float64(leads) / total
	} else {
		res.layer["gen.achieved_per_s"] = float64(reqs) / total
	}
	res.layer["http.conns_opened"] = float64(m.dials)
	if reqs > 0 {
		res.layer["http.resp_bytes_per_op"] = float64(bytes) / float64(reqs)
	}
}
