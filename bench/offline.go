package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partfeas"
	"partfeas/internal/workload"
)

// offInst is one offline-sweep instance: an implicit-deadline task set and
// its deadline-drawn constrained variant on the same platform.
type offInst struct {
	ts partfeas.TaskSet
	p  partfeas.Platform
	cs partfeas.ConstrainedSet
}

// offlineInstance draws instance i of seed's stream: n∈[8,64],
// m∈[2,16], load 0.3–1.0 of total speed, UUniFast utilizations, and
// deadlines uniform in [max(C, P/2), P] for the constrained variant.
func offlineInstance(seed int64, i int) offInst {
	rng := workload.NewRNG(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
	ts, speeds := randInstance(rng, 8, 64, 2, 16, 0.3, 1.0)
	cs := make(partfeas.ConstrainedSet, len(ts))
	for j, t := range ts {
		lo := max(t.WCET, t.Period/2)
		dl := lo
		if t.Period > lo {
			dl += rng.Int63n(t.Period - lo + 1)
		}
		cs[j] = partfeas.ConstrainedTask{WCET: t.WCET, Deadline: min(dl, t.Period), Period: t.Period}
		if cs[j].WCET > cs[j].Deadline {
			// A task whose WCET exceeds its period has no deadline with
			// C ≤ D ≤ P; the variant caps its WCET at D = P.
			cs[j].WCET = cs[j].Deadline
		}
	}
	return offInst{ts: ts, p: partfeas.NewPlatform(speeds...), cs: cs}
}

// offOut is one instance's results.
type offOut struct {
	edf, rms partfeas.Report
	alpha    float64
	alphaOK  bool
	cons     bool
	consA    []int
	times    [4]time.Duration // EDF test, RMS test, MinAlpha, constrained
}

// kernel runs the offline op: the paper's test under EDF and RMS at
// α=1, the EDF MinAlpha bisection, and the constrained EDF test (k=8).
func (in offInst) kernel() (offOut, error) {
	var o offOut
	var err error
	t0 := time.Now()
	if o.edf, err = partfeas.Test(in.ts, in.p, partfeas.EDF, 1); err != nil {
		return o, err
	}
	t1 := time.Now()
	if o.rms, err = partfeas.Test(in.ts, in.p, partfeas.RMS, 1); err != nil {
		return o, err
	}
	t2 := time.Now()
	if o.alpha, o.alphaOK, err = partfeas.MinAlpha(in.ts, in.p, partfeas.EDF, 0.01, 8, 1e-6); err != nil {
		return o, err
	}
	t3 := time.Now()
	if o.cons, o.consA, err = partfeas.TestConstrainedEDF(in.cs, in.p, 1, 8); err != nil {
		return o, err
	}
	t4 := time.Now()
	o.times = [4]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}
	return o, nil
}

// digest hashes every verdict and witness of an instance's results.
func (o *offOut) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range []*partfeas.Report{&o.edf, &o.rms} {
		w(uint64(b2i(r.Accepted)))
		w(uint64(r.Partition.FailedTask))
		for _, j := range r.Partition.Assignment {
			w(uint64(j))
		}
	}
	w(math.Float64bits(o.alpha))
	w(uint64(b2i(o.alphaOK)))
	w(uint64(b2i(o.cons)))
	for _, j := range o.consA {
		w(uint64(j))
	}
	return h.Sum64()
}

// refDigestSeed and refDigestLen fix the reference stream whose combined
// digest is recorded in testdata: every run recomputes it, so a change to
// any kernel's verdicts fails the oracle whatever seed the run uses.
const (
	refDigestSeed = 1
	refDigestLen  = 256
)

const digestFile = "testdata/offline_digest.txt"

func referenceDigest() (uint64, error) {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < refDigestLen; i++ {
		o, err := offlineInstance(refDigestSeed, i).kernel()
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(b[:], o.digest())
		h.Write(b[:])
	}
	return h.Sum64(), nil
}

// benchDir locates bench/ from the working directory: the repository
// root (where the benchmark runs) or bench/ itself (go test).
func benchDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench"
	}
	return "."
}

func recordedDigest() (uint64, error) {
	b, err := os.ReadFile(filepath.Join(benchDir(), digestFile))
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64)
}

// runOffline is the offline-sweep workload: two workers run the kernel
// over a pool of seeded instances, library only, no server.
func runOffline(cfg *config, sz sizes, res *result) {
	tr := newTracer()
	var pool []offInst
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		pool = make([]offInst, sz.offlinePool)
		for j := range pool {
			pool[j] = offlineInstance(cfg.seed, j)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = stat{value: median(setups), rounds: setups, samples: len(setups)}

	first := make([]atomic.Uint64, len(pool)) // each instance's first digest; 0 = unset
	var next atomic.Int64
	var mismatches atomic.Int64
	type sample struct {
		lat   uint32 // ns
		times [4]uint32
		edf   bool
	}
	var mu sync.Mutex
	var samples []sample
	var failures int
	work := func(dur time.Duration, round int8) {
		deadline := tr.now() + int64(dur)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []sample
				var failed int
				for tr.now() < deadline {
					j := int(next.Add(1)-1) % len(pool)
					t0 := tr.now()
					o, err := pool[j].kernel()
					t1 := tr.now()
					if err != nil {
						failed++
						continue
					}
					d := o.digest() | 1 // never 0, the unset marker
					if !first[j].CompareAndSwap(0, d) && first[j].Load() != d {
						mismatches.Add(1)
					}
					s := sample{lat: uint32(min(t1-t0, math.MaxUint32)), edf: o.edf.Accepted}
					for k, d := range o.times {
						s.times[k] = uint32(min(d, math.MaxUint32))
					}
					local = append(local, s)
				}
				mu.Lock()
				samples = append(samples, local...)
				if round >= 0 {
					failures += failed
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	if sz.warmup > 0 {
		work(sz.warmup, -1)
	}
	var host []hostSample
	var ops, p50, p99, a50, a99 []float64
	var n, nAdmit int
	var ktimes [4][]float64
	var accepted int
	for r := 0; r < sz.rounds(cfg); r++ {
		host = append(host, measureHost())
		before := len(samples)
		t0 := tr.now()
		work(sz.round, int8(r))
		elapsed := float64(tr.now()-t0) / 1e9
		var lat, adm []uint32
		for _, s := range samples[before:] {
			lat = append(lat, s.lat)
			adm = append(adm, s.times[0])
			for k := range ktimes {
				ktimes[k] = append(ktimes[k], float64(s.times[k])/1e3)
			}
			if s.edf {
				accepted++
			}
		}
		n += len(lat)
		nAdmit += len(adm)
		ops = append(ops, float64(len(lat))/elapsed)
		us, aus := appendUS(nil, lat), appendUS(nil, adm)
		p50, p99 = append(p50, quantile(us, 0.5)), append(p99, quantile(us, 0.99))
		a50, a99 = append(a50, quantile(aus, 0.5)), append(a99, quantile(aus, 0.99))
	}
	res.attempted = n + failures
	res.failed = failures
	res.setRounds("ops_per_s", ops, n)
	res.setRounds("p50_us", p50, n)
	setLatencies(res, a50, p99, a99, nil, nAdmit)
	setHost(res, host)
	for k, name := range []string{"partition.test_edf_us", "partition.test_rms_us", "partition.minalpha_us", "partition.constrained_us"} {
		res.layer[name] = median(ktimes[k])
	}
	if n > 0 {
		res.layer["partition.accept_share"] = float64(accepted) / float64(n)
	}
	res.layer["gen.achieved_per_s"] = median(ops)

	// Oracle, off the clock.
	if m := mismatches.Load(); m > 0 {
		res.problem("offline-sweep: %d kernel results differed between runs of the same instance", m)
	}
	for j := range pool {
		if err := checkOffline(pool[j]); err != nil {
			res.problem("offline-sweep instance %d: %v", j, err)
			break
		}
	}
	got, err := referenceDigest()
	if err != nil {
		res.problem("offline-sweep reference stream: %v", err)
	} else if want, err := recordedDigest(); err != nil {
		res.problem("offline-sweep: reading %s: %v", digestFile, err)
	} else if got != want {
		res.problem("offline-sweep: reference verdict digest %016x, %s records %016x", got, digestFile, want)
	}
}

// checkOffline verifies an instance's witnesses independently of the
// kernels: an accepted EDF partition places every task and loads no
// machine beyond its speed, a rejection names a task, a MinAlpha answer
// is itself accepted, and a constrained acceptance places every task.
func checkOffline(in offInst) error {
	o, err := in.kernel()
	if err != nil {
		return err
	}
	loads := make([]float64, len(in.p))
	for i, j := range o.edf.Partition.Assignment {
		if j >= 0 {
			loads[j] += in.ts[i].Utilization()
		} else if o.edf.Accepted {
			return fmt.Errorf("EDF accepted with task %d unplaced", i)
		}
	}
	if o.edf.Accepted {
		for j, l := range loads {
			if l > in.p[j].Speed*(1+1e-9) {
				return fmt.Errorf("EDF accepted with machine %d loaded %.6f over speed %.6f", j, l, in.p[j].Speed)
			}
		}
	} else if f := o.edf.Partition.FailedTask; f < 0 || f >= len(in.ts) {
		return fmt.Errorf("EDF rejected without a failed task (got %d)", f)
	}
	if o.alphaOK {
		rep, err := partfeas.Test(in.ts, in.p, partfeas.EDF, o.alpha)
		if err != nil {
			return err
		}
		if !rep.Accepted {
			return fmt.Errorf("MinAlpha answered %v, where the test rejects", o.alpha)
		}
	}
	if o.cons {
		for i, j := range o.consA {
			if j < 0 || j >= len(in.p) {
				return fmt.Errorf("constrained EDF accepted with task %d on machine %d", i, j)
			}
		}
	}
	return nil
}
