// Command bench is the repository's benchmark: four workloads, from the
// paper's kernels to the coordinator, measured from outside the program
// through its public entry points, with a traced variant that breaks
// each workload down by layer. See README.md.
//
//	bash bench/run.sh --workload admit-large --seed 1 --seconds 20 --trace 0
//	go run . -repeat 5            # from bench/: five seeds of every workload
//
// With --workload the workload runs in this process and the last line of
// standard output is its JSON result. Without it every workload runs in
// its own child process, so heap, RSS and set-up time stay per workload.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run in this process ("+strings.Join(workloads, ", ")+"); empty runs each in a child process")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds per workload run, split into six rounds")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with --trace 1, write the spans to this directory as JSON")
		repeat    = flag.Int("repeat", 0, "run the suite this many times, with seeds seed, seed+1, …, and report each metric's median and quartiles")
		calibrate = flag.Bool("calibrate", false, "measure tenants-open's closed-loop capacity in arrivals/s and exit")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if !(*seconds > 0) {
		fail(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	workDir := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fail(err)
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, workDir: workDir}
	var err error
	switch {
	case *calibrate:
		err = runCalibrate(cfg)
	case *repeat > 0:
		err = runRepeat(cfg, *repeat)
	case *workload == "":
		err = runRepeat(cfg, 1)
	default:
		var res *result
		if res, err = runWorkload(cfg); err == nil {
			res.print(os.Stdout, cfg.trace)
			if len(res.problems) > 0 {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// childRun is one workload run in a child process.
type childRun struct {
	line   resultLine
	layers map[string]float64 // the per-layer lines it printed
}

// runChild runs one workload in a child process, echoing its report to
// stdout, and parses its last line.
func runChild(cfg *config, workload string, seed int64) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace}
	if cfg.traceOut != "" {
		args = append(args, "--trace-out", cfg.traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &childRun{layers: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
		if f := strings.Fields(last); len(f) >= 4 && f[0] == "layer" && f[2] == "=" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				run.layers[f[1]] = v
			}
		}
	}
	_, _ = io.Copy(io.Discard, out)
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &run.line); err != nil {
		return nil, errors.Join(fmt.Errorf("%s seed %d: no result line", workload, seed), werr)
	}
	if werr != nil {
		return run, fmt.Errorf("%s seed %d: %w", workload, seed, werr)
	}
	return run, nil
}

// runRepeat runs the selected workloads n times each, seeds seed …
// seed+n-1, each run in its own child process, then prints every
// end-to-end metric's median, quartiles and spread per workload, plus
// the host.* readings, flagging each spread wider than its bound in
// BENCHMARK.json.
func runRepeat(cfg *config, n int) error {
	names := workloads
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	bounds := readBounds()
	var failed []string
	type series struct{ vals map[string][]float64 }
	all := map[string]*series{}
	for i := 0; i < n; i++ {
		for _, w := range names {
			run, err := runChild(cfg, w, cfg.seed+int64(i))
			if err != nil {
				failed = append(failed, err.Error())
			}
			if run == nil {
				continue
			}
			if !run.line.Correct || run.line.Failed > 0 {
				failed = append(failed, fmt.Sprintf("%s seed %d: correct=%v failed=%d", w, cfg.seed+int64(i), run.line.Correct, run.line.Failed))
			}
			s := all[w]
			if s == nil {
				s = &series{vals: map[string][]float64{}}
				all[w] = s
			}
			for name, mv := range run.line.Metrics {
				s.vals[name] = append(s.vals[name], mv.Value)
			}
			for name, v := range run.layers {
				if strings.HasPrefix(name, "host.") {
					s.vals[name] = append(s.vals[name], v)
				}
			}
		}
	}
	fmt.Printf("\nsummary over %d run(s) per workload (seeds %d…%d)\n", n, cfg.seed, cfg.seed+int64(n)-1)
	for _, w := range names {
		s := all[w]
		if s == nil {
			continue
		}
		fmt.Printf("%s\n", w)
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		for _, d := range append(append([]metricDef(nil), defs...), metricDef{"host.ref_us", "us"}, metricDef{"host.par_speedup", "ratio"}) {
			vals := s.vals[d.name]
			if len(vals) == 0 {
				continue
			}
			med := median(vals)
			q := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			flag := ""
			if b, ok := bounds[d.name]; ok && d.name != "setup_s" && spread > b {
				flag = fmt.Sprintf("  SPREAD > bound %.2f", b)
			}
			fmt.Printf("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% %s%s\n", d.name, med, q[0], q[2], spread*100, d.unit, flag)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// quartiles returns the three cut points statistics.quantiles(values,
// n=4) gives (its default "exclusive" method), the definition the bounds
// in BENCHMARK.json are judged by.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	n := float64(len(s))
	for i := 1; i <= 3; i++ {
		if len(s) == 1 {
			out[i-1] = s[0]
			continue
		}
		pos := float64(i) * (n + 1) / 4 // 1-based
		j := int(pos)
		switch {
		case j < 1:
			out[i-1] = s[0]
		case j >= len(s):
			out[i-1] = s[len(s)-1]
		default:
			out[i-1] = s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
		}
	}
	return out
}

// readBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json at the repository root, if it is there.
func readBounds() map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		b, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// runCalibrate offers tenants-open far more arrivals than it can serve
// for the run's duration and reports the rate it completed them at: the
// closed-loop capacity loRate and hiRate are fractions of.
func runCalibrate(cfg *config) (err error) {
	cfg.workload = "tenants-open"
	sz := sizesFor(false)
	tr := newTracer()
	var dials atomic.Int64
	e, err := setupTenants(cfg, sz, tr, &dials)
	if e != nil {
		defer func() { err = errors.Join(err, e.close()) }()
	}
	if err != nil {
		return err
	}
	_, _, byRank := tenantLayout(sz.tenants, sz.tenantMaxN)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	const offered = 40000 // arrivals/s, several times any capacity measured so far
	e.plan = tenantSchedule(cfg.seed, e.specs, byRank, sz.testSet, []openRound{{round: 0, rate: offered, dur: dur}})
	conns := []*conn{newConn(e.target, &dials), newConn(e.target, &dials)}
	m := driveOpen(cfg, sz, e, conns, tr)
	for _, c := range conns {
		c.close()
	}
	var arrivals int
	for _, t := range m.tallies {
		arrivals += t.leads
	}
	fmt.Printf("tenants-open capacity: %.0f arrivals/s (%d arrivals in %v; offered %.0f/s)\n",
		float64(arrivals)/(dur+dropAfter).Seconds(), arrivals, dur, float64(offered))
	return nil
}
