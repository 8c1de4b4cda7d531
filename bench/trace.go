package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"partfeas/internal/dbf"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
	"partfeas/internal/service"
)

// analyzeTrace turns the traced rounds into the per-layer metrics. The
// client and server spans were recorded during the run; the engine and
// write-ahead-log spans are replayed here, off the clock, by running each
// acknowledged op in order through a fresh online engine and appending
// it to a fresh WAL at the serve defaults. Service self time (its span
// minus the replayed engine and WAL time) is therefore an estimate.
func analyzeTrace(cfg *config, res *result, e *env, m *measured, tr *tracer) {
	byID := map[uint64]map[string]span{}
	for _, s := range tr.spans {
		if byID[s.ID] == nil {
			byID[s.ID] = map[string]span{}
		}
		byID[s.ID][s.Name] = s
	}
	var traced []*rec
	for _, rs := range m.recs {
		for i := range rs {
			if r := &rs[i]; r.span != 0 && r.round >= 0 && !r.failed {
				traced = append(traced, r)
				tr.add(span{Name: "client", ID: r.span, Start: r.start, End: r.end})
			}
		}
	}

	// Nesting: client ⊇ coordinator ⊇ service.
	var httpSelf, clusterSelf []float64
	svcSpan := map[kind][]float64{}
	bad := 0
	var firstBad string
	check := func(in, out span, r *rec) {
		if !within(in, out) {
			if bad == 0 {
				firstBad = fmt.Sprintf("%s span [%d, %d] outside %s span [%d, %d] (%s %s)", in.Name, in.Start, in.End, out.Name, out.Start, out.End, r.c.method, r.c.path)
			}
			bad++
		}
	}
	for _, r := range traced {
		ss := byID[r.span]
		outer := span{Name: "client", Start: r.start, End: r.end}
		if co, ok := ss["coordinator"]; ok {
			check(co, outer, r)
			httpSelf = append(httpSelf, float64((r.end-r.start)-(co.End-co.Start))/1e3)
			if sv, ok := ss["service"]; ok {
				check(sv, co, r)
				clusterSelf = append(clusterSelf, float64((co.End-co.Start)-(sv.End-sv.Start))/1e3)
			}
		} else if sv, ok := ss["service"]; ok {
			check(sv, outer, r)
			httpSelf = append(httpSelf, float64((r.end-r.start)-(sv.End-sv.Start))/1e3)
		}
		if sv, ok := ss["service"]; ok {
			svcSpan[r.c.kind] = append(svcSpan[r.c.kind], float64(sv.End-sv.Start)/1e3)
		}
	}
	if bad > 0 {
		res.problem("trace: %d spans lie outside their parent span; first: %s", bad, firstBad)
	}
	res.layer["http.self_p50_us"] = median(httpSelf)
	res.layer["cluster.self_p50_us"] = quantile(clusterSelf, 0.5)
	res.layer["cluster.self_p99_us"] = quantile(clusterSelf, 0.99)
	for k, name := range opNames {
		res.layer["service.span_p50_us."+name] = median(svcSpan[kind(k)])
	}
	respBytes := map[kind][]float64{}
	for _, rs := range m.recs {
		for _, r := range rs {
			if r.round >= 0 && !r.failed {
				respBytes[r.c.kind] = append(respBytes[r.c.kind], float64(r.bytes))
			}
		}
	}
	for k, name := range opNames {
		res.layer["service.resp_bytes."+name] = median(respBytes[kind(k)])
	}

	// Replayed engine and WAL spans.
	durable := e.dir != ""
	rp, err := newReplayer(cfg.workDir, e.specs)
	if err != nil {
		res.problem("trace replay: %v", err)
		return
	}
	if e.scripts != nil {
	segments:
		for _, rs := range m.recs {
			for _, seg := range tracedSegments(rs) {
				if err := rp.reset(); err != nil {
					res.problem("trace replay: %v", err)
					break segments
				}
				for i := seg[0]; i <= seg[1]; i++ {
					rp.apply(&rs[i], tr)
				}
			}
		}
	} else {
		for _, r := range inStartOrder(m.recs) {
			rp.apply(r, tr)
		}
	}
	if err := rp.close(); err != nil {
		res.problem("trace replay: %v", err)
	}
	for _, name := range engineOps {
		res.layer["online."+name+"_ns"] = median(rp.engNS[name])
	}
	res.layer["online.visited_mean"] = mean(rp.visited)
	if tot := rp.tiers[0] + rp.tiers[1] + rp.tiers[2]; tot > 0 {
		res.layer["online.cheap_tier_rate"] = float64(rp.tiers[0]+rp.tiers[1]) / float64(tot)
	}
	res.layer["online.fallback_ops"] = float64(rp.fallback)
	if durable {
		res.layer["oplog.append_p50_us"] = quantile(rp.walAll, 0.5)
		res.layer["oplog.append_p99_us"] = quantile(rp.walAll, 0.99)
		res.layer["oplog.bytes_per_op"] = rp.walBytesPerOp
	}

	// Service self time, and the check that replayed work fits inside the
	// service span it was replayed from.
	var self []float64
	for _, r := range traced {
		if sv, ok := byID[r.span]["service"]; ok {
			d := float64(sv.End-sv.Start) / 1e3
			d -= rp.engByID[r.span] / 1e3
			if durable {
				d -= rp.walByID[r.span]
			}
			self = append(self, d)
		}
	}
	res.layer["service.self_p50_us"] = median(self)
	if e.scripts != nil {
		for _, k := range []kind{kTail, kInterior, kReject, kRemove, kWCET, kBatch} {
			name := opNames[k]
			rep := median(rp.engKind[k]) / 1e3
			if durable {
				rep += median(rp.walKind[k])
			}
			if sp := median(svcSpan[k]); len(svcSpan[k]) > 0 && rep > sp {
				res.note("WARN replayed engine+WAL median %.2f us exceeds the %s service-span median %.2f us", rep, name, sp)
			}
		}
	}

	// Scraped counters over the measured rounds.
	delta := func(name string, servers []int) float64 {
		var d float64
		for _, i := range servers {
			d += sumProm(m.after[i], name) - sumProm(m.before[i], name)
		}
		return d
	}
	reps := make([]int, e.replicas)
	for i := range reps {
		reps[i] = i
	}
	adm := func(path string) float64 { return delta(`partfeas_admissions_total{path="`+path+`"}`, reps) }
	if single := adm("tail") + adm("interior") + adm("coalesced"); single > 0 {
		res.layer["service.coalesced_share"] = adm("coalesced") / single
	}
	hits, misses := delta("partfeas_tester_cache_hits_total", reps), delta("partfeas_tester_cache_misses_total", reps)
	if hits+misses > 0 {
		res.layer["service.pool_hit_ratio"] = hits / (hits + misses)
	}
	res.layer["service.pool_evictions"] = delta("partfeas_tester_pool_evictions_total", reps)
	res.layer["oplog.fsyncs"] = delta("partfeas_wal_fsyncs_total", reps)
	res.layer["oplog.snapshots"] = delta("partfeas_wal_snapshots_total", reps)
	if len(e.servers) > e.replicas {
		co := []int{e.replicas}
		res.layer["cluster.forwarded"] = delta("partfeas_forwarded_requests_total", co)
		res.layer["cluster.redirects"] = delta("partfeas_forward_redirects_total", co)
	}

	// The handler replay: the same requests through a fresh in-process
	// service handler, no socket.
	hk, alloc, err := handlerReplay(e, m)
	if err != nil {
		res.problem("handler replay: %v", err)
	}
	res.layer["service.alloc_bytes_per_op"] = alloc

	// Ladder rows for tail admits: engine, +WAL, handler, loopback, and
	// the coordinator hop.
	if e.scripts != nil {
		l0 := median(rp.engKind[kTail]) / 1e3
		res.layer["ladder.l0_engine_us"] = l0
		res.layer["ladder.l2_wal_us"] = l0 + median(rp.walKind[kTail])
		res.layer["ladder.l3_handler_us"] = median(hk[kTail])
		var client []float64
		for _, r := range traced {
			if r.c.kind == kTail {
				client = append(client, float64(r.end-r.start)/1e3)
			}
		}
		if len(e.servers) > e.replicas {
			res.layer["ladder.l5_coordinator_us"] = median(client)
		} else {
			res.layer["ladder.l4_loopback_us"] = median(client)
		}
		res.note("ladder (tail admit, us): L0 engine %.3f | L2 +WAL %.3f | L3 handler %.3f | L4 loopback %.3f | L5 coordinator %.3f",
			res.layer["ladder.l0_engine_us"], res.layer["ladder.l2_wal_us"], res.layer["ladder.l3_handler_us"],
			res.layer["ladder.l4_loopback_us"], res.layer["ladder.l5_coordinator_us"])
	}

	// Tracing overhead: traced rounds' p50 against untraced rounds' p50
	// (open loop: low-rate rounds only).
	var on, off []float64
	for r := range m.roundSecs {
		if m.open && r%2 == 1 {
			continue // open loop: high-rate round
		}
		var lat []float64
		for _, rs := range m.recs {
			for _, x := range rs {
				if int(x.round) == r && !x.failed {
					lat = append(lat, float64(x.latency())/1e3)
				}
			}
		}
		if m.traced[r] {
			on = append(on, median(lat))
		} else {
			off = append(off, median(lat))
		}
	}
	if u := median(off); u > 0 && len(on) > 0 {
		res.layer["bench.trace_overhead_pct"] = (median(on) - u) / u * 100
	}

	if cfg.traceOut != "" {
		for i := range tr.spans {
			switch s := &tr.spans[i]; {
			case s.Name == "coordinator":
				s.Parent = "client"
			case s.Name == "service" && byID[s.ID]["coordinator"].ID != 0:
				s.Parent = "coordinator"
			case s.Name == "service":
				s.Parent = "client"
			}
		}
		if err := writeSpans(cfg, tr.spans); err != nil {
			res.problem("writing spans: %v", err)
		}
	}
}

func within(in, out span) bool { return in.Start >= out.Start && in.End <= out.End }

// tracedSegments returns, per traced round, the index range to replay:
// from the start of the cycle holding the round's first request (where
// every session is at its initial state) to the round's last request.
func tracedSegments(rs []rec) [][2]int {
	var segs [][2]int
	for i := 0; i < len(rs); {
		if rs[i].span == 0 || rs[i].round < 0 {
			i++
			continue
		}
		j := i
		for j+1 < len(rs) && rs[j+1].round == rs[i].round {
			j++
		}
		s := i
		for s > 0 && !rs[s].c.cycle {
			s--
		}
		segs = append(segs, [2]int{s, j})
		i = j + 1
	}
	return segs
}

// inStartOrder merges the connections' records by send time. Each
// session's mutations ran one at a time in ticket order, so this order
// replays every session's state exactly.
func inStartOrder(recs [][]rec) []*rec {
	var all []*rec
	for _, rs := range recs {
		for i := range rs {
			all = append(all, &rs[i])
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// replayer re-runs acknowledged ops through fresh engines and a fresh
// WAL, timing each.
type replayer struct {
	specs []*sessionSpec
	engs  []*online.Engine
	tier0 [][3]uint64 // tier counts at engine construction
	wal   *oplog.WAL
	dir   string

	engNS    map[string][]float64 // by engine op name, ns
	engKind  map[kind][]float64   // by request kind, ns
	engByID  map[uint64]float64   // by span id, ns
	walKind  map[kind][]float64   // us
	walByID  map[uint64]float64   // us
	walAll   []float64            // us, traced appends
	visited  []float64
	tiers    [3]uint64
	fallback int

	walBytesPerOp float64
	appends       int
}

func newReplayer(workDir string, specs []*sessionSpec) (*replayer, error) {
	dir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return nil, err
	}
	w, err := oplog.Open(filepath.Join(dir, "wal"), oplog.Options{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rp := &replayer{specs: specs, wal: w, dir: dir,
		engNS: map[string][]float64{}, engKind: map[kind][]float64{}, engByID: map[uint64]float64{},
		walKind: map[kind][]float64{}, walByID: map[uint64]float64{}}
	if err := rp.reset(); err != nil {
		return nil, errors.Join(err, rp.close())
	}
	return rp, nil
}

// reset rebuilds every session's engine at its initial state.
func (rp *replayer) reset() error {
	rp.collectTiers()
	rp.engs = make([]*online.Engine, len(rp.specs))
	rp.tier0 = make([][3]uint64, len(rp.specs))
	for i, s := range rp.specs {
		eng, err := s.engine()
		if err != nil {
			return err
		}
		rp.engs[i] = eng
		rp.tier0[i][0], rp.tier0[i][1], rp.tier0[i][2] = eng.TierCounts()
	}
	return nil
}

func (rp *replayer) collectTiers() {
	for i, eng := range rp.engs {
		if eng == nil {
			continue
		}
		a, b, c := eng.TierCounts()
		rp.tiers[0] += a - rp.tier0[i][0]
		rp.tiers[1] += b - rp.tier0[i][1]
		rp.tiers[2] += c - rp.tier0[i][2]
	}
}

func (rp *replayer) close() error {
	rp.collectTiers()
	err := rp.wal.Close()
	var total int64
	if ents, rerr := os.ReadDir(filepath.Join(rp.dir, "wal")); rerr == nil {
		for _, de := range ents {
			if info, ierr := de.Info(); ierr == nil && strings.HasSuffix(de.Name(), ".log") {
				total += info.Size() - 16 // minus the segment header
			}
		}
	}
	if rp.appends > 0 {
		rp.walBytesPerOp = float64(total) / float64(rp.appends)
	}
	if rerr := os.RemoveAll(rp.dir); err == nil {
		err = rerr
	}
	return err
}

// apply replays one request's op. Only traced requests are reported;
// the others keep the engines' state in step.
func (rp *replayer) apply(r *rec, tr *tracer) {
	c := r.c
	if r.failed || c.sess < 0 || rp.engs[c.sess] == nil {
		return
	}
	rep := r.span != 0 && r.round >= 0
	if c.op.fallback {
		// Served on the batch-Tester path, which the engine cannot hold:
		// skip the force admit, and re-arm after the remove, as the
		// service does.
		if rep {
			rp.fallback++
		}
		if c.kind == kRemove {
			eng, err := rp.specs[c.sess].engineWith(rp.engs[c.sess].Tasks())
			if err != nil {
				eng = nil
			}
			rp.engs[c.sess] = eng
		}
		rp.appendWAL(r, c, rep, tr)
		return
	}
	eng := rp.engs[c.sess]
	constrained := rp.specs[c.sess].dls != nil
	name := ""
	t0 := time.Now()
	var err error
	switch c.kind {
	case kTail, kInterior, kReject:
		if constrained {
			t := c.op.tasks[0]
			_, _, err = eng.AdmitConstrained(dbf.Task{WCET: t.WCET, Deadline: c.op.dls[0], Period: t.Period})
			name = "admit_constrained"
		} else {
			_, _, err = eng.Admit(c.op.tasks[0])
			name = opNames[c.kind]
		}
	case kRemove:
		_, _, err = eng.Remove(c.op.index)
		name = "remove"
	case kWCET:
		_, _, err = eng.UpdateWCET(c.op.index, c.op.wcet)
		name = "wcet"
	case kBatch:
		if constrained {
			cs := make(dbf.Set, len(c.op.tasks))
			for i, t := range c.op.tasks {
				cs[i] = dbf.Task{WCET: t.WCET, Deadline: c.op.dls[i], Period: t.Period}
			}
			_, _, err = eng.AdmitBatchConstrained(cs, online.BestEffort)
		} else {
			_, _, err = eng.AdmitBatch(c.op.tasks, online.BestEffort)
		}
		name = "batch_per_task"
	default:
		return // reads change no engine state
	}
	d := float64(time.Since(t0))
	if err != nil {
		// The replay diverged from the served session (an op the engine
		// refused as malformed); stop replaying that session.
		rp.engs[c.sess] = nil
		return
	}
	if rep {
		if name == "batch_per_task" {
			rp.engNS[name] = append(rp.engNS[name], d/float64(len(c.op.tasks)))
		} else {
			rp.engNS[name] = append(rp.engNS[name], d)
		}
		rp.engKind[c.kind] = append(rp.engKind[c.kind], d)
		rp.engByID[r.span] = d
		rp.visited = append(rp.visited, float64(eng.LastOpStats().Visited))
		tr.add(span{Name: "online", ID: r.span, Parent: "service", Start: tr.now() - int64(d), End: tr.now(), Replayed: true})
	}
	rp.appendWAL(r, c, rep, tr)
}

// appendWAL appends the record the session logs for this call.
func (rp *replayer) appendWAL(r *rec, c *call, rep bool, tr *tracer) {
	o := &oplog.Op{Session: rp.specs[c.sess].id, Force: c.kind == kForce}
	switch c.kind {
	case kTail, kInterior, kReject, kForce:
		o.Type = oplog.TypeAdmit
	case kRemove:
		o.Type, o.Target = oplog.TypeRemove, c.op.index
	case kWCET:
		o.Type, o.Target, o.WCET = oplog.TypeUpdateWCET, c.op.index, c.op.wcet
	case kBatch:
		o.Type, o.BatchMode = oplog.TypeAdmitBatch, online.BestEffort.String()
	default:
		return
	}
	for i, t := range c.op.tasks {
		o.Tasks = append(o.Tasks, oplog.Task{WCET: t.WCET, Period: t.Period, Deadline: c.op.dls[i]})
	}
	t0 := time.Now()
	if _, err := rp.wal.Append(o); err != nil {
		return
	}
	d := float64(time.Since(t0)) / 1e3
	rp.appends++
	if rep {
		rp.walKind[c.kind] = append(rp.walKind[c.kind], d)
		rp.walByID[r.span] = d
		rp.walAll = append(rp.walAll, d)
		tr.add(span{Name: "oplog", ID: r.span, Parent: "service", Start: tr.now() - int64(d*1e3), End: tr.now(), Replayed: true})
	}
}

// handlerReplay sends requests of the run, in order, through a fresh
// non-durable service's handler with a recorder (no socket): the first
// traced round of each closed-loop connection (from its cycle start), or
// the open loop from its start through its first traced round. It
// returns the handler time per request kind, in µs, and the bytes the
// handler allocated per request.
func handlerReplay(e *env, m *measured) (map[kind][]float64, float64, error) {
	srv := service.New(service.Config{})
	h := srv.Handler()
	for _, s := range e.specs {
		req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(s.createBody()))
		req.Header.Set("X-Session-ID", s.id)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			return nil, 0, fmt.Errorf("creating %s: status %d", s.id, w.Code)
		}
	}
	var calls []*rec
	if e.scripts != nil {
		for _, rs := range m.recs {
			if segs := tracedSegments(rs); len(segs) > 0 {
				for i := segs[0][0]; i <= segs[0][1]; i++ {
					calls = append(calls, &rs[i])
				}
			}
		}
	} else {
		first := int8(-1)
		for r, t := range m.traced {
			if t {
				first = int8(r)
				break
			}
		}
		for _, r := range inStartOrder(m.recs) {
			if r.round > first {
				break
			}
			calls = append(calls, r)
		}
	}
	out := map[kind][]float64{}
	var alloc uint64
	var n int
	const chunk = 512
	reqs := make([]*http.Request, 0, chunk)
	ws := make([]*httptest.ResponseRecorder, 0, chunk)
	var ms runtime.MemStats
	for lo := 0; lo < len(calls); lo += chunk {
		hi := min(lo+chunk, len(calls))
		reqs, ws = reqs[:0], ws[:0]
		for _, r := range calls[lo:hi] {
			var body *bytes.Reader
			if r.c.body != nil {
				body = bytes.NewReader(r.c.body)
			} else {
				body = bytes.NewReader(nil)
			}
			reqs = append(reqs, httptest.NewRequest(r.c.method, r.c.path, body))
			ws = append(ws, httptest.NewRecorder())
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i, r := range calls[lo:hi] {
			t0 := time.Now()
			h.ServeHTTP(ws[i], reqs[i])
			d := float64(time.Since(t0)) / 1e3
			if r.span != 0 && !r.failed {
				out[r.c.kind] = append(out[r.c.kind], d)
			}
		}
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
		n += hi - lo
	}
	if n == 0 {
		return out, 0, nil
	}
	return out, float64(alloc) / float64(n), nil
}

func writeSpans(cfg *config, spans []span) error {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.traceOut, "spans-"+cfg.workload+".json"), b, 0o644)
}
