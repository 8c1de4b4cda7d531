package online

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// benchInstance builds the acceptance-criteria instance: m=64 machines,
// n=1000 resident tasks at moderate total utilization so admissions
// almost always succeed.
func benchInstance() (task.Set, machine.Platform) { return benchInstanceShape(64, 1000) }

// benchInstanceShape is benchInstance's generator at m machines and n
// resident tasks (~40% aggregate utilization).
func benchInstanceShape(m, n int) (task.Set, machine.Platform) {
	rng := rand.New(rand.NewSource(97))
	speeds := make([]float64, m)
	for j := range speeds {
		speeds[j] = 0.5 + 2*rng.Float64()
	}
	p := machine.New(speeds...)
	var total float64
	for _, s := range speeds {
		total += s
	}
	ts := make(task.Set, n)
	for i := range ts {
		per := int64(100 + rng.Intn(900))
		// Target ~40% of platform capacity in aggregate.
		u := 0.4 * total / float64(n) * (0.5 + rng.Float64())
		wc := int64(u * float64(per))
		if wc < 1 {
			wc = 1
		}
		ts[i] = task.Task{WCET: wc, Period: per}
	}
	return ts, p
}

// benchProbes: "tail" has a utilization below every resident task, so
// its sorted position is last and Admit takes the capacity-tree fast
// path — the typical case for a new small task joining a large set.
// "interior" lands mid-order and forces a suffix replay, first-fit's
// genuinely expensive case (removing it cascades later placements
// exactly as a fresh solve would).
var benchProbes = []struct {
	name string
	tk   task.Task
}{
	{"tail", task.Task{WCET: 1, Period: 1 << 20}},
	{"interior", task.Task{WCET: 7, Period: 100}},
}

// benchOrders are the two first-fit policies the implicit benchmarks
// compare, under their historical sub-benchmark names.
var benchOrders = []struct {
	name string
	pol  Policy
}{{"sorted", FirstFitSorted()}, {"arrival", FirstFitArrival()}}

// BenchmarkOnlineAdmit measures one incremental admit+remove round trip
// on a live engine — the operation pair a session performs for a
// rejected-then-rolled-back or probed mutation, and the engine-backed
// replacement for the full re-solve below. The acceptance comparison is
// sorted/tail (the path sessions hit for typical arrivals) against
// BenchmarkFullResolveAdmit.
//
// sorted/reject/n=… is one refused admission through AdmitSummary, the
// call a served session makes: a utilization-3 task sorts first and no
// machine (speeds 0.5–2.5) admits it, on the m=64 instance at three
// sizes. It answers without inserting, so it stays flat in n and
// allocates nothing.
func BenchmarkOnlineAdmit(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("sorted/reject/n=%d", n), func(b *testing.B) {
			ts, p := benchInstanceShape(64, n)
			e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}})
			if err != nil {
				b.Fatal(err)
			}
			reject := dbf.Task{WCET: 300, Deadline: 100, Period: 100}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sum, err := e.AdmitSummary(reject, false); err != nil || sum.Feasible {
					b.Fatalf("reject: %+v err=%v", sum, err)
				}
			}
		})
	}
	ts, p := benchInstance()
	for _, ord := range benchOrders {
		for _, probe := range benchProbes {
			if !ord.pol.Ordered() && probe.name == "interior" {
				continue // arrival placement is position-independent
			}
			b.Run(ord.name+"/"+probe.name, func(b *testing.B) {
				e, err := NewEngine(ts, p, Options{Policy: ord.pol, Admission: partition.EDFAdmission{}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok, err := e.Admit(probe.tk); err != nil || !ok {
						b.Fatalf("admit: ok=%v err=%v", ok, err)
					}
					if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
						b.Fatalf("remove: ok=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkOnlineAdmitBatch measures a 64-task interior batch admitted
// as one merged replay. The batch scatters interior insertions across
// the placement order, yet pays one suffix walk for the whole batch, so
// the amortized ns/task metric lands within a small factor of a single
// tail admit instead of costing 64 interior replays. Engine state is rebuilt outside the timer; the
// timed section is exactly the AdmitBatch call.
func BenchmarkOnlineAdmitBatch(b *testing.B) {
	ts, p := benchInstance()
	const batch = 64
	bt := make([]task.Task, batch)
	for i := range bt {
		// Utilizations spread across the resident range (~0.019–0.058)
		// so the batch scatters over many distinct interior positions.
		bt[i] = task.Task{WCET: 7, Period: int64(140 + 5*i)}
	}
	e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engine's arenas once so the timed loop measures the
	// steady state, then reuse one engine throughout: cleanup removes the
	// batch's tasks between iterations, untimed.
	undo := func() {
		for k := 0; k < batch; k++ {
			if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
				b.Fatalf("remove: ok=%v err=%v", ok, err)
			}
		}
	}
	if _, _, err := e.AdmitBatch(bt, BestEffort); err != nil {
		b.Fatal(err)
	}
	undo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, admitted, err := e.AdmitBatch(bt, BestEffort)
		if err != nil {
			b.Fatal(err)
		}
		for k, ok := range admitted {
			if !ok {
				b.Fatalf("batch task %d rejected", k)
			}
		}
		b.StopTimer()
		undo()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/task")
}

// BenchmarkOnlineAdmitShapes times the interior admit+remove round trip
// at the shapes the replay's prefix lookup is sensitive to: few machines
// with long placed lists (m=4, n=1000) and many machines with short ones
// (m=256, n=2000). The probe is a copy of the median-utilization
// resident, so it lands mid-order and forces a suffix replay.
func BenchmarkOnlineAdmitShapes(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{4, 1000}, {256, 2000}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			ts, p := benchInstanceShape(sh.m, sh.n)
			byUtil := ts.Clone()
			sort.Slice(byUtil, func(a, c int) bool { return byUtil[a].Utilization() > byUtil[c].Utilization() })
			probe := byUtil[len(byUtil)/2]
			e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := e.Admit(probe); err != nil || !ok {
					b.Fatalf("admit: ok=%v err=%v", ok, err)
				}
				if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
					b.Fatalf("remove: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkOnlineUpdateWCET measures one WCET update round trip
// through UpdateWCETSummary, the call a served session makes, on the
// m=64, n=1000 instance: a random resident's WCET rises by 20–100%, then
// goes back. ns/update is the mean of the two updates.
func BenchmarkOnlineUpdateWCET(b *testing.B) {
	ts, p := benchInstance()
	e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(len(ts))
		w := ts[id].WCET
		if _, err := e.UpdateWCETSummary(id, w+max(1, w*int64(20+rng.Intn(81))/100), false); err != nil {
			b.Fatal(err)
		}
		if sum, err := e.UpdateWCETSummary(id, w, false); err != nil || !sum.Feasible {
			b.Fatalf("restore: %+v err=%v", sum, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/2, "ns/update")
}

// dbfHeadInstance is the open-tenant workload's constrained session
// shape at n tasks, drawn from seed: m=16 machines with speeds in
// [0.3, 0.95], periods in [100, 999], ~40% load and deadlines 60–100% of
// the period.
func dbfHeadInstance(seed int64, n int) (task.Set, []int64, machine.Platform) {
	rng := rand.New(rand.NewSource(seed))
	speeds := make([]float64, 16)
	var total float64
	for j := range speeds {
		speeds[j] = 0.3 + 0.65*rng.Float64()
		total += speeds[j]
	}
	ts := make(task.Set, n)
	dls := make([]int64, n)
	for i := range ts {
		per := int64(100 + rng.Intn(900))
		u := 0.4 * total / float64(n) * (0.5 + rng.Float64())
		ts[i] = task.Task{WCET: max(1, int64(u*float64(per))), Period: per}
		dls[i] = min(max(int64(float64(per)*(0.6+0.4*rng.Float64())), ts[i].WCET), per)
	}
	return ts, dls, machine.New(speeds...)
}

// BenchmarkOnlineDBFHead times the constrained engine's costliest ops
// at n=300 against a fresh build, on the instances of seeds 1–12: the
// exact test's cost varies tenfold between instances, so one op is the
// op on all twelve. build is NewEngine; remove takes out the head of the
// placement order, so every later task replays through the DBF tiers;
// wcet halves the head's WCET. Each op is undone untimed.
func BenchmarkOnlineDBFHead(b *testing.B) {
	type inst struct {
		ts  task.Set
		p   machine.Platform
		opt Options
		e   *Engine
	}
	insts := make([]inst, 12)
	for i := range insts {
		in := &insts[i]
		var dls []int64
		in.ts, dls, in.p = dbfHeadInstance(int64(i+1), 300)
		in.opt = Options{Deadlines: dls}
		var err error
		if in.e, err = NewEngine(in.ts, in.p, in.opt); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range insts {
				if _, err := NewEngine(in.ts, in.p, in.opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("remove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range insts {
				id := int(in.e.sorted[0])
				t := in.e.ConstrainedTasks()[id]
				if _, ok, err := in.e.Remove(id); err != nil || !ok {
					b.Fatalf("remove: ok=%v err=%v", ok, err)
				}
				b.StopTimer()
				if _, ok, err := in.e.AdmitConstrained(t); err != nil || !ok {
					b.Fatalf("re-admit: ok=%v err=%v", ok, err)
				}
				b.StartTimer()
			}
		}
	})
	b.Run("wcet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range insts {
				id := int(in.e.sorted[0])
				w := in.e.tasks[id].WCET
				if _, ok, err := in.e.UpdateWCET(id, max(1, w/2)); err != nil || !ok {
					b.Fatalf("halve: ok=%v err=%v", ok, err)
				}
				b.StopTimer()
				if _, ok, err := in.e.UpdateWCET(id, w); err != nil || !ok {
					b.Fatalf("restore: ok=%v err=%v", ok, err)
				}
				b.StartTimer()
			}
		}
	})
}

// BenchmarkFullResolveAdmit measures the path the engine replaces: the
// session's legacy admit, which clones the candidate set and re-solves
// the whole instance from scratch (NewSolver + Solve) per mutation.
func BenchmarkFullResolveAdmit(b *testing.B) {
	ts, p := benchInstance()
	cfg := partition.Paper(partition.EDFAdmission{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidate := append(ts.Clone(), benchProbes[0].tk)
		s, err := partition.NewSolver(candidate, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Solve(1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("bench instance must be feasible")
		}
	}
}

// BenchmarkRepartitionPlan measures the drift measurement itself (a
// fresh sorted solve plus the diff) at the acceptance-criteria scale.
func BenchmarkRepartitionPlan(b *testing.B) {
	ts, p := benchInstance()
	e, err := NewEngine(ts, p, Options{Policy: FirstFitArrival(), Admission: partition.EDFAdmission{}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PlanRepartition(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConstrainedInstance mirrors benchInstance's scale (m=64, n=1000,
// ~40% aggregate utilization) with constrained deadlines and dyadic
// periods spread from 2^12 to 2^20. The spread is what separates the
// tiers: a machine holding a long-period task alongside short ones has
// an exact-test horizon of maxD·Σ1/P ≈ 10^4 checkpoints per probe,
// while the density fold answers the same probe in O(1).
//
// Everything lives on an exact float64 grid — utilizations are
// multiples of 2^-12, speeds multiples of 1/4, periods powers of two —
// so a machine's utilization slack is either exactly zero (the cheap
// 2^20-hyperperiod branch) or at least 2^-12, which bounds the La
// horizon num/(s−u) every probe can see. Off-grid continuous draws
// admit probes with slack ~1e-5 whose checkpoint enumeration blows the
// analysis budget and aborts the solve.
func benchConstrainedInstance() (dbf.Set, machine.Platform) {
	rng := rand.New(rand.NewSource(97))
	const m, n = 64, 1000
	speeds := make([]float64, m)
	for j := range speeds {
		speeds[j] = float64(2+rng.Intn(9)) / 4
	}
	p := machine.New(speeds...)
	var total float64
	for _, s := range speeds {
		total += s
	}
	cs := make(dbf.Set, n)
	for i := range cs {
		per := int64(1) << (12 + rng.Intn(9))
		u := 0.4 * total / n * (0.5 + rng.Float64())
		q := int64(u*4096 + 0.5)
		if q < 1 {
			q = 1
		}
		// Deadline one tick under the period: the density excess over
		// utilization stays ~1e-4 per machine, so packed machines remain
		// answerable by the density tier while the exact test still runs
		// the full constrained analysis.
		cs[i] = dbf.Task{WCET: q * (per >> 12), Deadline: per - 1, Period: per}
	}
	return cs, p
}

// benchDBFProbes: the constrained analogues of benchProbes — "tail"
// has a density below every resident's, so it appends at the end of the
// sorted order (the steady-state arrival); "interior" lands mid-order,
// forcing a suffix replay through the density and exact tiers. Both
// stay on the instance's utilization grid (see benchConstrainedInstance).
var benchDBFProbes = []struct {
	name string
	tk   dbf.Task
}{
	{"tail", dbf.Task{WCET: 1, Deadline: 1 << 19, Period: 1 << 20}},
	{"interior", dbf.Task{WCET: 80, Deadline: 4095, Period: 4096}},
}

// BenchmarkOnlineAdmitDBF measures one constrained admit+remove round
// trip at the acceptance scale through the engine's two tiers (density
// pre-filter, then the exact test). Each run also exports the
// fraction of feasibility decisions the density tier answered as
// "cheap-tier-rate". The rows keep their "tiered/" prefix so results
// line up with the recorded BENCH files. The engine is built once and
// shared across reruns — every round trip restores the resident state
// exactly, which the differential tests prove.
func BenchmarkOnlineAdmitDBF(b *testing.B) {
	cs, p := benchConstrainedInstance()
	ts, dls := splitConstrained(cs)
	e, err := NewEngine(ts, p, Options{Deadlines: dls})
	if err != nil {
		b.Fatal(err)
	}
	for _, probe := range benchDBFProbes {
		b.Run("tiered/"+probe.name, func(b *testing.B) {
			// One untimed round trip warms the arenas and the exact
			// probe's candidate buffer to their steady-state shape.
			if _, ok, err := e.AdmitConstrained(probe.tk); err != nil || !ok {
				b.Fatalf("warm admit: ok=%v err=%v", ok, err)
			}
			if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
				b.Fatalf("warm remove: ok=%v err=%v", ok, err)
			}
			d0, _, x0 := e.TierCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := e.AdmitConstrained(probe.tk); err != nil || !ok {
					b.Fatalf("admit: ok=%v err=%v", ok, err)
				}
				if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
					b.Fatalf("remove: ok=%v err=%v", ok, err)
				}
			}
			b.StopTimer()
			d1, _, x1 := e.TierCounts()
			if decisions := float64((d1 - d0) + (x1 - x0)); decisions > 0 {
				b.ReportMetric(float64(d1-d0)/decisions, "cheap-tier-rate")
			}
		})
	}
}

// TestBenchConstrainedInstanceFeasible keeps the constrained benchmark
// instance honest at both pipeline depths.
func TestBenchConstrainedInstanceFeasible(t *testing.T) {
	cs, p := benchConstrainedInstance()
	ts, dls := splitConstrained(cs)
	for _, k := range []int{0, 8} {
		if _, err := NewEngine(ts, p, Options{Deadlines: dls, ApproxK: k}); err != nil {
			t.Fatal(fmt.Errorf("k=%d: %w", k, err))
		}
	}
}

// TestBenchInstanceFeasible keeps the benchmark instance honest: it must
// be feasible in both modes so the loops above cannot silently no-op.
func TestBenchInstanceFeasible(t *testing.T) {
	ts, p := benchInstance()
	for _, ord := range benchOrders {
		if _, err := NewEngine(ts, p, Options{Policy: ord.pol, Admission: partition.EDFAdmission{}}); err != nil {
			t.Fatal(fmt.Errorf("%s: %w", ord.name, err))
		}
	}
}
