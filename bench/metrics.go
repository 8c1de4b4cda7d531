package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one named metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists what a caller of the system sees, in print order. Every
// workload reports every one of them; the README defines each per
// workload.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// opNames are the request kinds the service layer is broken down by.
var opNames = [nKinds]string{
	kTail:     "admit_tail",
	kInterior: "admit_interior",
	kReject:   "admit_reject",
	kRemove:   "remove",
	kWCET:     "wcet",
	kGet:      "get",
	kBatch:    "batch",
	kTest:     "test",
	kRepart:   "repartition",
	kForce:    "force",
}

// engineOps are the replayed engine operations reported as online.<op>_ns.
var engineOps = []string{"admit_tail", "admit_interior", "admit_reject", "remove", "wcet", "batch_per_task", "admit_constrained"}

// perLayer lists the traced run's metrics. A metric whose layer a
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.late_p50_us", "us"},
		{"gen.late_p99_us", "us"},
		{"gen.backlog_max", "count"},
		{"gen.achieved_per_s", "ops/s"},
		{"latency.admit_p50_us", "us"},
		{"latency.p99_us", "us"},
		{"latency.admit_p99_us", "us"},
		{"latency.p99_us_hi", "us"},
		{"http.self_p50_us", "us"},
		{"http.conns_opened", "count"},
		{"http.resp_bytes_per_op", "B"},
		{"cluster.self_p50_us", "us"},
		{"cluster.self_p99_us", "us"},
		{"cluster.forwarded", "count"},
		{"cluster.redirects", "count"},
	}
	for _, op := range opNames {
		defs = append(defs, metricDef{"service.span_p50_us." + op, "us"})
	}
	for _, op := range opNames {
		defs = append(defs, metricDef{"service.resp_bytes." + op, "B"})
	}
	defs = append(defs,
		metricDef{"service.self_p50_us", "us"},
		metricDef{"service.alloc_bytes_per_op", "B"},
		metricDef{"service.coalesced_share", "ratio"},
		metricDef{"service.pool_hit_ratio", "ratio"},
		metricDef{"service.pool_evictions", "count"},
	)
	for _, op := range engineOps {
		defs = append(defs, metricDef{"online." + op + "_ns", "ns"})
	}
	defs = append(defs,
		metricDef{"online.visited_mean", "count"},
		metricDef{"online.cheap_tier_rate", "ratio"},
		metricDef{"online.fallback_ops", "count"},
		metricDef{"oplog.append_p50_us", "us"},
		metricDef{"oplog.append_p99_us", "us"},
		metricDef{"oplog.bytes_per_op", "B"},
		metricDef{"oplog.fsyncs", "count"},
		metricDef{"oplog.snapshots", "count"},
		metricDef{"partition.test_edf_us", "us"},
		metricDef{"partition.test_rms_us", "us"},
		metricDef{"partition.minalpha_us", "us"},
		metricDef{"partition.constrained_us", "us"},
		metricDef{"partition.accept_share", "ratio"},
		metricDef{"ladder.l0_engine_us", "us"},
		metricDef{"ladder.l2_wal_us", "us"},
		metricDef{"ladder.l3_handler_us", "us"},
		metricDef{"ladder.l4_loopback_us", "us"},
		metricDef{"ladder.l5_coordinator_us", "us"},
		metricDef{"host.ref_us", "us"},
		metricDef{"host.par_speedup", "ratio"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
	return defs
}()

// stat is one end-to-end metric: the reported value, the per-round (or,
// for setup_s, per-set-up) values behind it, and the number of samples
// it was computed from.
type stat struct {
	value   float64
	rounds  []float64
	samples int
}

// result is everything one workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	e2e       map[string]stat
	layer     map[string]float64
	problems  []string // oracle and trace-check failures; any makes the run incorrect
	notes     []string // printed, not judged (ladder rows, trace overhead)
}

func newResult(workload string) *result {
	r := &result{workload: workload, e2e: map[string]stat{}, layer: map[string]float64{}}
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
	return r
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setRounds records an end-to-end metric from its one-second rounds as
// the quartile on the metric's better side: the upper quartile of
// throughput, the lower quartile of a latency. The VM this benchmark is
// baselined on loses its second vCPU to its host for seconds at a time,
// which halves throughput for those rounds; the better quartile is what
// the program does when it has the machine, as long as at least a
// quarter of a run's rounds do.
func (r *result) setRounds(name string, rounds []float64, samples int) {
	q := 0.25
	if name == "ops_per_s" {
		q = 0.75
	}
	r.e2e[name] = stat{value: quantile(rounds, q), rounds: rounds, samples: samples}
}

// setLatencies records the single-admit median and the 99th percentiles
// as per-layer metrics: the admit median as its better quartile over
// rounds, like p50_us; the tails as their median over rounds. They are
// not end-to-end metrics: on the baseline VM their run-to-run spread
// exceeded any bound the benchmark may set (README).
func setLatencies(r *result, a50, p99, a99, hi99 []float64, admits int) {
	r.layer["latency.admit_p50_us"] = quantile(a50, 0.25)
	r.layer["latency.p99_us"] = median(p99)
	r.layer["latency.admit_p99_us"] = median(a99)
	r.layer["latency.p99_us_hi"] = median(hi99)
	r.note("single-task admits: %d", admits)
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report followed by the one-line JSON
// result: the end-to-end metrics for an untraced run, the per-layer ones
// for a traced run.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, d := range endToEnd {
		s := r.e2e[d.name]
		q1, q3 := quantile(s.rounds, 0.25), quantile(s.rounds, 0.75)
		fmt.Fprintf(w, "  metric %s = %.6g %s (n=%d, q1=%.6g, q3=%.6g, rounds=%s)\n", d.name, s.value, d.unit, s.samples, q1, q3, fmtList(s.rounds))
	}
	for _, d := range perLayer {
		if traced || strings.HasPrefix(d.name, "host.") || strings.HasPrefix(d.name, "gen.") || strings.HasPrefix(d.name, "latency.") {
			fmt.Fprintf(w, "  layer %s = %.6g %s\n", d.name, r.layer[d.name], d.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	line := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.name] = metricValue{Value: finite(r.layer[d.name]), Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = metricValue{Value: finite(r.e2e[d.name].value), Unit: d.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is finite, so encoding cannot fail
	}
	fmt.Fprintln(w, string(b))
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the definition statistics.quantiles uses with
// method="inclusive"); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// appendUS appends nanosecond samples to dst as microseconds.
func appendUS(dst []float64, ns []uint32) []float64 {
	for _, v := range ns {
		dst = append(dst, float64(v)/1e3)
	}
	return dst
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
