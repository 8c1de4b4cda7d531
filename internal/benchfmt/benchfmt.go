// Package benchfmt is the repository's benchmark interchange format:
// parsing of `go test -bench` output lines, the JSON suite document the
// results/BENCH_N.json files carry, and baseline comparison so a later
// run can gate on regressions against an earlier one. cmd/benchjson
// produces the files with it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line. Extra carries custom units emitted via
// testing.B.ReportMetric (e.g. the serve benchmarks' p50/p99 latency and
// requests-per-second figures), keyed by the unit string.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Metric reads a named metric off the result: the standard field names
// ns_per_op / bytes_per_op / allocs_per_op, or any Extra unit string.
func (r Result) Metric(name string) (float64, bool) {
	switch name {
	case "ns_per_op":
		return r.NsPerOp, true
	case "bytes_per_op":
		return r.BytesPerOp, true
	case "allocs_per_op":
		return r.AllocsPerOp, true
	}
	v, ok := r.Extra[name]
	return v, ok
}

// Suite is the file-level document.
type Suite struct {
	Generated string   `json:"generated"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// Find returns the named result.
func (s Suite) Find(name string) (Result, bool) {
	for _, r := range s.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// gomaxprocsSuffix strips the benchmark name's -N GOMAXPROCS suffix so
// records compare across hosts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseLine parses one `go test -bench` output line such as
//
//	BenchmarkMinAlpha-8   6266   58375 ns/op   3840 B/op   15 allocs/op
//	BenchmarkServeTest-8  912    131k ns/op    220 p50-µs  850 p99-µs
//
// The fields after the iteration count are (value, unit) pairs: ns/op,
// B/op and allocs/op land in the standard Result fields, any other unit
// (testing.B.ReportMetric) lands in Extra. A line without ns/op is not a
// benchmark result.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: gomaxprocsSuffix.ReplaceAllString(fields[0], ""), Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp, sawNs = v, true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, sawNs
}

// ParseOutput collects every benchmark result line in a `go test -bench`
// transcript.
func ParseOutput(raw []byte) []Result {
	var out []Result
	for _, line := range strings.Split(string(raw), "\n") {
		if r, ok := ParseLine(strings.TrimSpace(line)); ok {
			out = append(out, r)
		}
	}
	return out
}

// Load reads a suite document from disk.
func Load(path string) (Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, err
	}
	var s Suite
	if err := json.Unmarshal(raw, &s); err != nil {
		return Suite{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// Write renders the suite as indented JSON at path.
func (s Suite) Write(path string) error {
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// Regression is one metric that got worse between two suites, as a
// fraction of the baseline value (0.5 = 50% slower).
type Regression struct {
	Name     string
	Metric   string
	Baseline float64
	Current  float64
	Fraction float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %g -> %g (+%.1f%%)", r.Name, r.Metric, r.Baseline, r.Current, r.Fraction*100)
}

// Compare reports every benchmark present in both suites whose metric
// regressed by more than maxRegress (a fraction; lower metric values are
// better, which holds for every unit the suite records). Benchmarks only
// one side has, and baselines at zero, are skipped — the gate compares
// trajectories, it does not demand identical suites.
func Compare(baseline, current Suite, metric string, maxRegress float64) []Regression {
	var regs []Regression
	for _, cur := range current.Results {
		base, ok := baseline.Find(cur.Name)
		if !ok {
			continue
		}
		bv, bok := base.Metric(metric)
		cv, cok := cur.Metric(metric)
		if !bok || !cok || bv <= 0 {
			continue
		}
		if frac := (cv - bv) / bv; frac > maxRegress {
			regs = append(regs, Regression{Name: cur.Name, Metric: metric, Baseline: bv, Current: cv, Fraction: frac})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Fraction > regs[j].Fraction })
	return regs
}
