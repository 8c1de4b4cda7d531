package service

import (
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{time.Millisecond, 10}, // 1µs·2^10 = 1.024ms
		{time.Second, 20},      // 1µs·2^20 ≈ 1.049s
		{time.Hour, histBuckets},
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	m := NewMetrics(nil)
	if q := m.quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q)
	}
	// 90 fast requests (~100µs), 10 slow (~50ms): p50 lands in the fast
	// bucket's upper bound, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		m.RequestStarted()
		m.RequestDone("/v1/test", 200, 100*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.RequestStarted()
		m.RequestDone("/v1/test", 200, 50*time.Millisecond)
	}
	p50, p99 := m.quantile(0.5), m.quantile(0.99)
	if p50 > time.Millisecond {
		t.Errorf("p50 = %v, want ≤ 1ms", p50)
	}
	if p99 < 10*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want a slow-bucket bound", p99)
	}
	if p50 >= p99 {
		t.Errorf("p50 %v not below p99 %v", p50, p99)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	m := NewMetrics(func() int { return 3 })
	m.RequestStarted()
	m.RequestDone("/v1/test", 200, time.Millisecond)
	m.RequestStarted() // still in flight at scrape time
	m.RequestCanceled()

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`partfeas_http_requests_total{endpoint="/v1/test",code="200"} 1`,
		"partfeas_http_in_flight 1",
		"partfeas_http_requests_canceled_total 1",
		"partfeas_sessions_active 3",
		`partfeas_http_request_duration_seconds{quantile="0.99"}`,
		"partfeas_http_request_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" — two fields.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Fields(line)); got != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	m.RequestDone("/v1/test", 200, time.Millisecond)
}
