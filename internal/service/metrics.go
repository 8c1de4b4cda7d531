package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latency histogram: exponential buckets doubling from 1µs; bucket i
// covers durations up to 1µs·2^i, the last bucket is the overflow.
const (
	histBuckets = 26 // 1µs … ~33s, then overflow
	histBase    = time.Microsecond
)

// Metrics aggregates the counters behind the /metrics endpoint: request
// counts by endpoint and status code, in-flight and cancellation gauges,
// and request-latency quantiles (p50/p90/p99) estimated from a
// log-bucketed histogram. All hot-path updates are atomics or a single
// short-held mutex, so the handlers can record at full request rate.
type Metrics struct {
	start time.Time

	inFlight atomic.Int64
	canceled atomic.Uint64

	mu       sync.Mutex
	requests map[reqKey]uint64

	hist    [histBuckets + 1]atomic.Uint64
	histCnt atomic.Uint64
	histSum atomic.Uint64 // nanoseconds

	// Per-path session-admission counters and latency histograms
	// (engine mutation time, not whole-request time).
	admitHist [nPaths][histBuckets + 1]atomic.Uint64
	admitCnt  [nPaths]atomic.Uint64
	admitSum  [nPaths]atomic.Uint64 // nanoseconds

	// Session migration counters: completed outbound/inbound handoffs,
	// failed attempts, and the end-to-end duration of outbound ones.
	migrOut    atomic.Uint64
	migrIn     atomic.Uint64
	migrFailed atomic.Uint64
	migrHist   [histBuckets + 1]atomic.Uint64
	migrSum    atomic.Uint64 // nanoseconds

	// sessionsActive and walStats are read at scrape time.
	// walStats is nil on a non-durable server, which omits the
	// partfeas_wal_* family entirely.
	sessionsActive func() int
	walStats       func() WALStats
}

type reqKey struct {
	endpoint string
	code     int
}

// AdmissionPath classifies how a session admission was executed, as
// reported by the engine's per-op stats: the end-of-order fast path, an
// interior suffix replay, or an explicit admit-batch request.
type AdmissionPath int

const (
	PathTail AdmissionPath = iota
	PathInterior
	PathBatch
	// The tier paths classify constrained-deadline (DBF) admissions by
	// the deepest tier that decided them: the O(1) density pre-filter or
	// the exact processor-demand test. A constrained single admit records
	// on both axes — tail/interior for where it landed, and one tier path
	// for how hard the feasibility question was.
	PathDensity
	PathDBFExact
	nPaths
)

func (p AdmissionPath) String() string {
	switch p {
	case PathTail:
		return "tail"
	case PathInterior:
		return "interior"
	case PathBatch:
		return "batch"
	case PathDensity:
		return "density"
	case PathDBFExact:
		return "dbf_exact"
	default:
		return fmt.Sprintf("path%d", int(p))
	}
}

// TierPath maps the engine's per-op MaxTier (1-based) to its admission
// path; ok is false for implicit-deadline ops (tier 0).
func TierPath(tier int) (AdmissionPath, bool) {
	switch tier {
	case 1:
		return PathDensity, true
	case 2:
		return PathDBFExact, true
	default:
		return 0, false
	}
}

// NewMetrics builds the metrics registry; sessions is read lazily at
// scrape time (it may be nil).
func NewMetrics(sessions func() int) *Metrics {
	return &Metrics{
		start:          time.Now(),
		requests:       map[reqKey]uint64{},
		sessionsActive: sessions,
	}
}

// RequestStarted marks a request in flight; pair with RequestDone.
func (m *Metrics) RequestStarted() { m.inFlight.Add(1) }

// RequestDone records one finished request.
func (m *Metrics) RequestDone(endpoint string, code int, d time.Duration) {
	m.inFlight.Add(-1)
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	m.mu.Unlock()
	m.hist[bucketOf(d)].Add(1)
	m.histCnt.Add(1)
	m.histSum.Add(uint64(d.Nanoseconds()))
}

// RequestCanceled counts a request abandoned by its client mid-flight.
func (m *Metrics) RequestCanceled() { m.canceled.Add(1) }

// AdmissionObserved records one session admission served on the given
// path, with the time the engine mutation took.
func (m *Metrics) AdmissionObserved(p AdmissionPath, d time.Duration) {
	if p < 0 || p >= nPaths {
		return
	}
	m.admitHist[p][bucketOf(d)].Add(1)
	m.admitCnt[p].Add(1)
	m.admitSum[p].Add(uint64(d.Nanoseconds()))
}

// MigrationOut records one completed outbound session handoff and its
// end-to-end duration (snapshot through confirmed commit).
func (m *Metrics) MigrationOut(d time.Duration) {
	m.migrOut.Add(1)
	m.migrHist[bucketOf(d)].Add(1)
	m.migrSum.Add(uint64(d.Nanoseconds()))
}

// MigrationIn records one session activated here by an inbound handoff.
func (m *Metrics) MigrationIn() { m.migrIn.Add(1) }

// MigrationFailed records one migration attempt that did not complete
// (the session is either still live at the source or re-drivable).
func (m *Metrics) MigrationFailed() { m.migrFailed.Add(1) }

// admitQuantile estimates the q-quantile of one path's admission
// latency histogram; 0 with no data.
func (m *Metrics) admitQuantile(p AdmissionPath, q float64) time.Duration {
	return histQuantile(&m.admitHist[p], m.admitCnt[p].Load(), q)
}

// histQuantile estimates the q-quantile (0 < q < 1) of a log-bucketed
// histogram with the given observation count as the upper bound of the
// bucket holding the q-th observation; 0 with no data.
func histQuantile(hist *[histBuckets + 1]atomic.Uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += hist[i].Load()
		if cum > rank {
			if i == histBuckets {
				return histBase << uint(histBuckets-1)
			}
			return histBase << uint(i)
		}
	}
	return histBase << uint(histBuckets-1)
}

func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	for i := 0; i < histBuckets; i++ {
		if d <= histBase<<uint(i) {
			return i
		}
	}
	return histBuckets
}

// quantile estimates the q-quantile of the request latency histogram.
func (m *Metrics) quantile(q float64) time.Duration {
	return histQuantile(&m.hist, m.histCnt.Load(), q)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, deterministically ordered.
func (m *Metrics) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP partfeas_uptime_seconds Time since server start.\n")
	fmt.Fprintf(w, "# TYPE partfeas_uptime_seconds gauge\n")
	fmt.Fprintf(w, "partfeas_uptime_seconds %g\n", time.Since(m.start).Seconds())

	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	counts := make(map[reqKey]uint64, len(m.requests))
	for k, v := range m.requests {
		counts[k] = v
	}
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP partfeas_http_requests_total Finished requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE partfeas_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "partfeas_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, counts[k])
	}

	fmt.Fprintf(w, "# HELP partfeas_http_in_flight Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE partfeas_http_in_flight gauge\n")
	fmt.Fprintf(w, "partfeas_http_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP partfeas_http_requests_canceled_total Requests abandoned by their client mid-flight.\n")
	fmt.Fprintf(w, "# TYPE partfeas_http_requests_canceled_total counter\n")
	fmt.Fprintf(w, "partfeas_http_requests_canceled_total %d\n", m.canceled.Load())

	if m.sessionsActive != nil {
		fmt.Fprintf(w, "# HELP partfeas_sessions_active Open admission sessions.\n")
		fmt.Fprintf(w, "# TYPE partfeas_sessions_active gauge\n")
		fmt.Fprintf(w, "partfeas_sessions_active %d\n", m.sessionsActive())
	}

	fmt.Fprintf(w, "# HELP partfeas_migrations_total Completed session migrations by direction.\n")
	fmt.Fprintf(w, "# TYPE partfeas_migrations_total counter\n")
	fmt.Fprintf(w, "partfeas_migrations_total{direction=\"out\"} %d\n", m.migrOut.Load())
	fmt.Fprintf(w, "partfeas_migrations_total{direction=\"in\"} %d\n", m.migrIn.Load())
	fmt.Fprintf(w, "# HELP partfeas_migration_failures_total Migration attempts that did not complete.\n")
	fmt.Fprintf(w, "# TYPE partfeas_migration_failures_total counter\n")
	fmt.Fprintf(w, "partfeas_migration_failures_total %d\n", m.migrFailed.Load())
	fmt.Fprintf(w, "# HELP partfeas_migration_duration_seconds Outbound migration end-to-end latency quantiles (log-bucket upper bounds).\n")
	fmt.Fprintf(w, "# TYPE partfeas_migration_duration_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "partfeas_migration_duration_seconds{quantile=\"%g\"} %g\n", q, histQuantile(&m.migrHist, m.migrOut.Load(), q).Seconds())
	}
	fmt.Fprintf(w, "partfeas_migration_duration_seconds_sum %g\n", float64(m.migrSum.Load())/1e9)
	fmt.Fprintf(w, "partfeas_migration_duration_seconds_count %d\n", m.migrOut.Load())

	fmt.Fprintf(w, "# HELP partfeas_admissions_total Session admissions by engine path.\n")
	fmt.Fprintf(w, "# TYPE partfeas_admissions_total counter\n")
	for p := AdmissionPath(0); p < nPaths; p++ {
		fmt.Fprintf(w, "partfeas_admissions_total{path=%q} %d\n", p.String(), m.admitCnt[p].Load())
	}
	fmt.Fprintf(w, "# HELP partfeas_admission_duration_seconds Engine admission latency quantiles by path (log-bucket upper bounds).\n")
	fmt.Fprintf(w, "# TYPE partfeas_admission_duration_seconds summary\n")
	for p := AdmissionPath(0); p < nPaths; p++ {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "partfeas_admission_duration_seconds{path=%q,quantile=\"%g\"} %g\n", p.String(), q, m.admitQuantile(p, q).Seconds())
		}
		fmt.Fprintf(w, "partfeas_admission_duration_seconds_sum{path=%q} %g\n", p.String(), float64(m.admitSum[p].Load())/1e9)
		fmt.Fprintf(w, "partfeas_admission_duration_seconds_count{path=%q} %d\n", p.String(), m.admitCnt[p].Load())
	}

	if m.walStats != nil {
		ws := m.walStats()
		fmt.Fprintf(w, "# HELP partfeas_wal_appends_total Ops appended to the write-ahead log.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_appends_total counter\n")
		fmt.Fprintf(w, "partfeas_wal_appends_total %d\n", ws.Appends)
		fmt.Fprintf(w, "# HELP partfeas_wal_fsyncs_total Group-commit fsyncs issued on the active segment.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "partfeas_wal_fsyncs_total %d\n", ws.Fsyncs)
		fmt.Fprintf(w, "# HELP partfeas_wal_rotations_total Segment rotations.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_rotations_total counter\n")
		fmt.Fprintf(w, "partfeas_wal_rotations_total %d\n", ws.Rotations)
		fmt.Fprintf(w, "# HELP partfeas_wal_snapshots_total Snapshots written since start.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_snapshots_total counter\n")
		fmt.Fprintf(w, "partfeas_wal_snapshots_total %d\n", ws.Snapshots)
		fmt.Fprintf(w, "# HELP partfeas_wal_snapshot_failures_total Snapshot attempts that failed (persistent failure lets the WAL grow unbounded).\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_snapshot_failures_total counter\n")
		fmt.Fprintf(w, "partfeas_wal_snapshot_failures_total %d\n", ws.SnapshotFailures)
		fmt.Fprintf(w, "# HELP partfeas_wal_segments Live WAL segment files.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_segments gauge\n")
		fmt.Fprintf(w, "partfeas_wal_segments %d\n", ws.Segments)
		fmt.Fprintf(w, "# HELP partfeas_wal_segment_bytes Bytes in the active segment.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_segment_bytes gauge\n")
		fmt.Fprintf(w, "partfeas_wal_segment_bytes %d\n", ws.SegmentBytes)
		fmt.Fprintf(w, "# HELP partfeas_wal_next_index Index the next appended op will take.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_next_index gauge\n")
		fmt.Fprintf(w, "partfeas_wal_next_index %d\n", ws.NextIndex)
		fmt.Fprintf(w, "# HELP partfeas_wal_last_snapshot_index Last op index covered by a snapshot.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_last_snapshot_index gauge\n")
		fmt.Fprintf(w, "partfeas_wal_last_snapshot_index %d\n", ws.LastSnapshot)
		degraded := 0
		if ws.Degraded {
			degraded = 1
		}
		fmt.Fprintf(w, "# HELP partfeas_wal_degraded 1 while the server is read-only after a WAL failure.\n")
		fmt.Fprintf(w, "# TYPE partfeas_wal_degraded gauge\n")
		fmt.Fprintf(w, "partfeas_wal_degraded %d\n", degraded)
	}

	fmt.Fprintf(w, "# HELP partfeas_http_request_duration_seconds Request latency quantiles (log-bucket upper bounds).\n")
	fmt.Fprintf(w, "# TYPE partfeas_http_request_duration_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "partfeas_http_request_duration_seconds{quantile=\"%g\"} %g\n", q, m.quantile(q).Seconds())
	}
	fmt.Fprintf(w, "partfeas_http_request_duration_seconds_sum %g\n", float64(m.histSum.Load())/1e9)
	fmt.Fprintf(w, "partfeas_http_request_duration_seconds_count %d\n", m.histCnt.Load())
}
