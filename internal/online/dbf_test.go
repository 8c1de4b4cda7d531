package online

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// The differential generators keep every utilization and speed on the
// dyadic 1/64 grid: periods are powers of two ≤ 64 and speeds multiples
// of 1/4, so per-machine utilization sums are exact in float64 and the
// gap s−u is either exactly zero (the cheap hyperperiod branch — the
// lcm is ≤ 64) or at least ~1/64. That bounds every exact probe's
// checkpoint count, so ten-thousand-plus fresh FirstFit reference
// solves stay fast, and it makes the boundary u = s reachable exactly
// instead of only by float accident.

func randCTask(rng *rand.Rand) dbf.Task {
	p := int64(4) << rng.Intn(5) // 4, 8, 16, 32, 64
	c := 1 + rng.Int63n(p)
	d := c + rng.Int63n(p-c+1)
	return dbf.Task{WCET: c, Deadline: d, Period: p}
}

func randDyadicPlatform(rng *rand.Rand) machine.Platform {
	m := 1 + rng.Intn(3)
	speeds := make([]float64, m)
	for i := range speeds {
		speeds[i] = float64(1+rng.Intn(8)) / 4 // 0.25 .. 2.0
	}
	return machine.New(speeds...)
}

func cloneCSet(s dbf.Set) dbf.Set { return append(dbf.Set{}, s...) }

// heavyCTask is a constrained task of utilization at least 3/4, so a
// few of them overfill any differential platform.
func heavyCTask(rng *rand.Rand) dbf.Task {
	p := int64(4) << rng.Intn(5)
	c := p - rng.Int63n(p/4+1)
	return dbf.Task{WCET: c, Deadline: c + rng.Int63n(p-c+1), Period: p}
}

// checkOp compares one engine mutation against the fresh reference
// solve over the candidate multiset. Both sides must agree on the
// verdict and the whole result (a refusal's witness included), or —
// when the exact analysis itself fails — on failing.
func checkOp(t *testing.T, ctx string, res partition.Result, ok bool, opErr error, want partition.Result, refErr error) (applied bool) {
	t.Helper()
	if refErr != nil {
		if opErr == nil {
			t.Fatalf("%s: fresh solve failed (%v) but the engine op succeeded", ctx, refErr)
		}
		return false
	}
	if opErr != nil {
		t.Fatalf("%s: engine op error %v, fresh solve succeeded", ctx, opErr)
	}
	if ok != want.Feasible {
		t.Fatalf("%s: verdict = %v, fresh = %v", ctx, ok, want.Feasible)
	}
	sameResult(t, ctx, res.Clone(), want)
	return ok
}

// checkForced compares a forced Summary call, which always commits,
// against the fresh reference over the candidate multiset: the verdict,
// the failed task, the load bits and the op task's entry (entry < 0: a
// removal, which reports -1).
func checkForced(t *testing.T, ctx string, sum Summary, opErr error, want partition.Result, refErr error, entry int) (applied bool) {
	t.Helper()
	if refErr != nil {
		if opErr == nil {
			t.Fatalf("%s: fresh solve failed (%v) but the forced op succeeded", ctx, refErr)
		}
		return false
	}
	if opErr != nil {
		t.Fatalf("%s: forced op error %v, fresh solve succeeded", ctx, opErr)
	}
	m := -1
	if entry >= 0 {
		m = want.Assignment[entry]
	}
	if sum.Feasible != want.Feasible || sum.FailedTask != want.FailedTask || sum.Machine != m ||
		!reflect.DeepEqual(bitsOf(sum.Loads), bitsOf(want.Loads)) {
		t.Fatalf("%s: forced summary %+v, fresh solve feasible=%v failed=%d machine=%d loads=%v",
			ctx, sum, want.Feasible, want.FailedTask, m, want.Loads)
	}
	return true
}

// TestEngineDBFSortedDifferential is the constrained engine's acceptance
// test: over randomized Admit/Remove/UpdateWCET/AdmitBatch sequences on
// constrained-deadline sets, a quarter of the single ops forced through
// their Summary calls, every sorted-policy engine answer must be
// identical to a fresh dbf.FirstFit (exact-admission) solve over the
// candidate multiset — no matter which tier answered — and after every
// step the engine's Result must equal the fresh solve of the resident
// multiset, feasible or not: assignment, verdict, failed task and load
// bits. A third of the instances open on an infeasible set, and every
// 25th step rebuilds the engine with NewEngine over the resident set
// and continues on the rebuilt one, so NewEngine's failure state meets
// later ops too. Options.ApproxK is ignored, so the three k sub-tests
// run the same density-and-exact pipeline on different seeds.
func TestEngineDBFSortedDifferential(t *testing.T) {
	const (
		instances = 12
		opsPer    = 300
	)
	for _, k := range []int{0, 1, 4} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(k)*7919 + 13))
			held, recovered, forcedFail := 0, 0, 0
			for inst := 0; inst < instances; inst++ {
				p := randDyadicPlatform(rng)
				alpha := []float64{1, 1, 1.5, 2.5}[rng.Intn(4)]
				opts := Options{Alpha: alpha, ApproxK: k}
				cur := dbf.Set{{WCET: 1, Deadline: 64, Period: 64}}
				if inst%3 == 2 {
					for n := 4 + rng.Intn(8); n > 0; n-- {
						cur = append(cur, heavyCTask(rng))
					}
				}
				build := func(ctx string) *Engine {
					ts, dls := splitConstrained(cur)
					opts.Deadlines = dls
					e, err := NewEngine(ts, p, opts)
					want, refErr := dbf.FirstFitResult(cur, p, alpha, 0)
					if refErr != nil {
						t.Fatalf("%s: fresh solve: %v", ctx, refErr)
					}
					if (err != nil) != !want.Feasible || err != nil && !errors.Is(err, ErrInfeasible) || e == nil {
						t.Fatalf("%s: NewEngine err = %v, fresh solve feasible = %v", ctx, err, want.Feasible)
					}
					return e
				}
				e := build(fmt.Sprintf("inst %d: seed engine", inst))
				tiers := uint64(0) // density and exact decisions, over rebuilds
				for op := 0; op < opsPer; op++ {
					ctx := fmt.Sprintf("inst %d op %d", inst, op)
					wasFeasible := e.Feasible()
					force := rng.Intn(4) == 0
					c := rng.Intn(10)
					if !wasFeasible && rng.Intn(2) == 0 {
						c = 5 // lean toward removals while a failure state stands
					}
					switch {
					case op%25 == 24:
						d, _, x := e.TierCounts()
						tiers += d + x
						e = build(ctx + " rebuild")
					case c < 4: // admit
						tk := randCTask(rng)
						if force && rng.Intn(4) == 0 {
							tk = heavyCTask(rng)
						}
						cand := append(cloneCSet(cur), tk)
						want, refErr := dbf.FirstFitResult(cand, p, alpha, 0)
						if force {
							sum, err := e.AdmitSummary(tk, true)
							if checkForced(t, ctx+" forced admit", sum, err, want, refErr, len(cand)-1) {
								cur = cand
							}
						} else if res, ok, err := e.AdmitConstrained(tk); checkOp(t, ctx+" admit", res, ok, err, want, refErr) {
							cur = cand
						}
					case c < 6 && len(cur) > 1: // remove
						id := rng.Intn(len(cur))
						shr := append(cloneCSet(cur[:id]), cur[id+1:]...)
						want, refErr := dbf.FirstFitResult(shr, p, alpha, 0)
						if force {
							sum, err := e.RemoveSummary(id, true)
							if checkForced(t, ctx+" forced remove", sum, err, want, refErr, -1) {
								cur = shr
							}
						} else if res, ok, err := e.Remove(id); checkOp(t, ctx+" remove", res, ok, err, want, refErr) {
							cur = shr
						}
					case c < 8: // update WCET
						id := rng.Intn(len(cur))
						w := 1 + rng.Int63n(cur[id].Deadline)
						upd := cloneCSet(cur)
						upd[id].WCET = w
						want, refErr := dbf.FirstFitResult(upd, p, alpha, 0)
						if force {
							sum, err := e.UpdateWCETSummary(id, w, true)
							if checkForced(t, ctx+" forced update", sum, err, want, refErr, id) {
								cur = upd
							}
						} else if res, ok, err := e.UpdateWCET(id, w); checkOp(t, ctx+" update", res, ok, err, want, refErr) {
							cur = upd
						}
					default: // batch admit
						bn := 2 + rng.Intn(3)
						batch := make(dbf.Set, bn)
						for i := range batch {
							batch[i] = randCTask(rng)
						}
						if rng.Intn(2) == 0 { // AllOrNothing
							union := append(cloneCSet(cur), batch...)
							want, refErr := dbf.FirstFitResult(union, p, alpha, 0)
							_, admitted, err := e.AdmitBatchConstrained(batch, AllOrNothing)
							if refErr != nil {
								if err == nil {
									t.Fatalf("%s: fresh union solve failed (%v) but batch succeeded", ctx, refErr)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: Batch: %v", ctx, err)
							}
							for i, a := range admitted {
								if a != want.Feasible {
									t.Fatalf("%s: batch admitted[%d]=%v, fresh=%v", ctx, i, a, want.Feasible)
								}
							}
							if want.Feasible {
								cur = union
							}
						} else { // BestEffort = sequential-admit semantics
							wantAdm := make([]bool, bn)
							mirror := cloneCSet(cur)
							refFailed := false
							for i, tk := range batch {
								cand := append(cloneCSet(mirror), tk)
								want, refErr := dbf.FirstFitResult(cand, p, alpha, 0)
								if refErr != nil {
									refFailed = true
									break
								}
								wantAdm[i] = want.Feasible
								if want.Feasible {
									mirror = cand
								}
							}
							_, admitted, err := e.AdmitBatchConstrained(batch, BestEffort)
							if refFailed {
								if err == nil {
									t.Fatalf("%s: fresh sequential solve failed but batch succeeded", ctx)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: Batch: %v", ctx, err)
							}
							if !reflect.DeepEqual(admitted, wantAdm) {
								t.Fatalf("%s: batch admitted=%v, want %v", ctx, admitted, wantAdm)
							}
							cur = mirror
						}
					}
					// The engine's resident state must match a fresh solve after
					// every step, feasible or not, and its internals verify.
					want, refErr := dbf.FirstFitResult(cur, p, alpha, 0)
					if refErr != nil {
						t.Fatalf("%s: fresh state solve: %v", ctx, refErr)
					}
					sameResult(t, ctx+" state", e.Result().Clone(), want)
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("%s: SelfCheck: %v", ctx, err)
					}
					if !reflect.DeepEqual(e.ConstrainedTasks(), cur) {
						t.Fatalf("%s: resident multiset diverged", ctx)
					}
					switch {
					case !e.Feasible():
						held++
						if force {
							forcedFail++
						}
					case !wasFeasible:
						recovered++
					}
				}
				d, a, x := e.TierCounts()
				if tiers += d + x; a != 0 || tiers == 0 {
					t.Fatalf("inst %d: tier decisions density+exact %d, approximate %d", inst, tiers, a)
				}
			}
			t.Logf("%d steps ended infeasible (%d after a forced op), %d recovered", held, forcedFail, recovered)
			if held == 0 || recovered == 0 || forcedFail == 0 {
				t.Fatalf("op mix never held a failure state (%d), forced one (%d) or left one (%d)", held, forcedFail, recovered)
			}
		})
	}
}

// TestEngineDBFTierCounts pins the tiers actually firing: on a lightly
// loaded engine the density tier must answer probes, every probe must be
// counted as density or exact (the approximate count stays 0), and
// per-op stats must report the deepest tier used.
func TestEngineDBFTierCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := machine.New(1, 1, 1, 1)
	e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 18}}, p, Options{Deadlines: []int64{1 << 18}, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		pp := int64(100 + rng.Intn(900))
		c := 1 + rng.Int63n(pp/50+1)
		d := c + (pp-c)/2
		d0, _, x0 := e.TierCounts()
		_, admitted, err := e.AdmitConstrained(dbf.Task{WCET: c, Deadline: d, Period: pp})
		if err != nil {
			t.Fatal(err)
		}
		if admitted && e.LastOpStats().MaxTier == 0 {
			t.Fatalf("op %d: admitted with MaxTier 0 on a constrained engine", i)
		}
		if d1, a1, x1 := e.TierCounts(); a1 != 0 || d1+x1 == d0+x0 {
			t.Fatalf("op %d: probes not counted as density or exact: density %d→%d approx=%d exact %d→%d", i, d0, d1, a1, x0, x1)
		}
	}
	dn, ap, ex := e.TierCounts()
	if dn == 0 {
		t.Fatalf("density tier never fired: density=%d approx=%d exact=%d", dn, ap, ex)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDBFMemoSpliceGeneration: after a local removal that leaves
// a machine non-empty with nothing to re-place (a splice), the exact
// tier must decide a probe against the machine's new resident set, not
// an earlier one. The probe p (C = D, so only the exact tier can decide
// it) fits an empty machine but not one holding a.
func TestEngineDBFMemoSpliceGeneration(t *testing.T) {
	p := dbf.Task{Name: "p", WCET: 2, Deadline: 2, Period: 8}
	a := dbf.Task{Name: "a", WCET: 1, Deadline: 2, Period: 8}
	x := dbf.Task{Name: "x", WCET: 1, Deadline: 8, Period: 8}
	full := dbf.Task{Name: "full", WCET: 8, Deadline: 8, Period: 8}
	ts, dls := splitConstrained(dbf.Set{p, full}) // p on machine 0, full on 1
	e, err := NewEngine(ts, machine.New(1, 1), Options{Policy: FirstFitArrival(), Deadlines: dls})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Result().Assignment; got[0] != 0 || got[1] != 1 {
		t.Fatalf("seed assignment = %v, want [0 1]", got)
	}
	mustOp := func(what string, ok bool, err error) {
		t.Helper()
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", what, ok, err)
		}
	}
	_, ok, err := e.Remove(0) // machine 0 empties; full is now id 0
	mustOp("remove p", ok, err)
	_, ok, err = e.AdmitConstrained(a)
	mustOp("admit a", ok, err)
	_, ok, err = e.AdmitConstrained(x)
	mustOp("admit x", ok, err)
	_, ok, err = e.Remove(2) // x was placed last on machine 0: nothing to re-place
	mustOp("remove x", ok, err)
	if _, ok, err = e.AdmitConstrained(p); err != nil || ok {
		t.Fatalf("p beside a: admitted=%v err=%v, want a rejection (dbf(2) = 3 > 2)", ok, err)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDBFArrivalSmoke exercises the first-fit-arrival constrained
// engine: local admits, removals and updates with SelfCheck after every
// mutation (there is no offline reference for arrival order).
func TestEngineDBFArrivalSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := machine.New(0.5, 1, 2)
	e, err := NewEngine(task.Set{{WCET: 1, Period: 64}}, p, Options{Policy: FirstFitArrival(), Deadlines: []int64{64}, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := 1
	for op := 0; op < 400; op++ {
		switch c := rng.Intn(10); {
		case c < 5:
			if _, ok, err := e.AdmitConstrained(randCTask(rng)); err != nil {
				t.Fatalf("op %d: Admit: %v", op, err)
			} else if ok {
				live++
			}
		case c < 7 && live > 1:
			if _, ok, err := e.Remove(rng.Intn(live)); err != nil {
				t.Fatalf("op %d: Remove: %v", op, err)
			} else if ok {
				live--
			}
		default:
			id := rng.Intn(live)
			w := 1 + rng.Int63n(e.Deadline(id))
			if _, _, err := e.UpdateWCET(id, w); err != nil {
				t.Fatalf("op %d: Update: %v", op, err)
			}
		}
		if err := e.SelfCheck(); err != nil {
			t.Fatalf("op %d: SelfCheck: %v", op, err)
		}
	}
}

// TestEngineDBFHorizonError verifies the engine surfaces FeasibleEDF's
// typed analysis errors exactly where the offline solve hits them: a
// candidate whose utilization equals the speed over near-coprime ~2^39
// periods sends the exact test down the hyperperiod branch, which
// overflows and reports ErrHorizonTooLarge instead of a wrong answer.
func TestEngineDBFHorizonError(t *testing.T) {
	p1 := int64(1)<<39 + 1
	p2 := int64(1)<<39 - 1
	t1 := dbf.Task{Name: "a", WCET: 1 << 30, Deadline: (p1 + 1) / 2, Period: p1}
	t2 := dbf.Task{Name: "b", WCET: 1 << 30, Deadline: (p2 + 1) / 2, Period: p2}
	speed := t1.Utilization() + t2.Utilization()
	plat := machine.New(speed)
	ts := dbf.Set{t1, t2}

	if _, _, err := dbf.FirstFit(ts, plat, 1, 0); !errors.Is(err, dbf.ErrHorizonTooLarge) {
		t.Fatalf("fresh FirstFit err = %v, want ErrHorizonTooLarge", err)
	}
	tts, dls := splitConstrained(ts)
	for _, k := range []int{0, 4} {
		if _, err := NewEngine(tts, plat, Options{Deadlines: dls, ApproxK: k}); !errors.Is(err, dbf.ErrHorizonTooLarge) {
			t.Fatalf("k=%d: NewEngine err = %v, want ErrHorizonTooLarge", k, err)
		}
	}

	// The same candidate offered to a live engine must reject with the
	// same typed error and leave the engine untouched.
	e, err := NewEngine(tts[:1], plat, Options{Deadlines: dls[:1], ApproxK: 4})
	if err != nil {
		t.Fatalf("single-task engine: %v", err)
	}
	if _, _, err := e.AdmitConstrained(t2); !errors.Is(err, dbf.ErrHorizonTooLarge) {
		t.Fatalf("Admit err = %v, want ErrHorizonTooLarge", err)
	}
	if e.Len() != 1 {
		t.Fatalf("failed admit mutated the engine: %d tasks", e.Len())
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDBFValidation covers the constrained-specific argument
// checks: the period cap, malformed deadlines, repartition refusal, and
// UpdateWCET's C ≤ D rule.
func TestEngineDBFValidation(t *testing.T) {
	p := machine.New(1, 1)
	seed, seedDls := task.Set{{WCET: 1, Period: 100}}, []int64{100}
	e, err := NewEngine(seed, p, Options{Deadlines: seedDls, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AdmitConstrained(dbf.Task{WCET: 1, Deadline: 2, Period: maxConstrainedPeriod + 1}); err == nil {
		t.Fatal("period above the cap admitted")
	}
	if _, _, err := e.AdmitConstrained(dbf.Task{WCET: 5, Deadline: 4, Period: 10}); err == nil {
		t.Fatal("D < C admitted")
	}
	if _, ok, err := e.AdmitConstrained(dbf.Task{WCET: 2, Deadline: 4, Period: 10}); err != nil || !ok {
		t.Fatalf("valid constrained admit failed: admitted=%v err=%v", ok, err)
	}
	if _, _, err := e.UpdateWCET(1, 5); err == nil {
		t.Fatal("UpdateWCET above the deadline accepted")
	}
	if _, err := e.PlanRepartition(); err == nil {
		t.Fatal("PlanRepartition on a constrained engine succeeded")
	}
	if _, err := NewEngine(seed, p, Options{Deadlines: seedDls, ApproxK: 1 << 20}); err != nil {
		t.Fatalf("ApproxK is ignored, so any value must be accepted: %v", err)
	}
	if _, err := NewEngine(task.Set{}, p, Options{Deadlines: []int64{}, ApproxK: 4}); err == nil {
		t.Fatal("empty constrained set accepted")
	}
}

// TestImplicitEngineForwardsConstrainedCalls: on an implicit-deadline
// engine, AdmitConstrained and AdmitBatchConstrained take implicit tasks
// (D = P) exactly as Admit and AdmitBatch do — verdicts, witnesses and
// state — without the constrained period cap, and refuse any other
// deadline.
func TestImplicitEngineForwardsConstrainedCalls(t *testing.T) {
	implicit := func(tk task.Task) dbf.Task {
		return dbf.Task{Name: tk.Name, WCET: tk.WCET, Deadline: tk.Period, Period: tk.Period}
	}
	rng := rand.New(rand.NewSource(59))
	for _, adm := range testAdmissions {
		for _, pol := range []Policy{FirstFitSorted(), BestFit()} {
			p := randPlatform(rng)
			opts := Options{Policy: pol, Admission: adm}
			seed := task.Set{{WCET: 1, Period: 1 << 20}}
			got, err := NewEngine(seed, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewEngine(seed, p, opts)
			for op := 0; op < 80; op++ {
				if op%4 == 3 {
					batch := []task.Task{randTask(rng), randTask(rng), randTask(rng)}
					cs := dbf.Set{implicit(batch[0]), implicit(batch[1]), implicit(batch[2])}
					mode := BatchMode(op / 4 % 2)
					resG, okG, errG := got.AdmitBatchConstrained(cs, mode)
					resW, okW, errW := want.AdmitBatch(batch, mode)
					if errG != nil || errW != nil || !reflect.DeepEqual(okG, okW) || !reflect.DeepEqual(resG, resW) {
						t.Fatalf("%s/%s op %d: batch diverged: %v %v / %v %v", adm.Name(), pol.Name(), op, okG, errG, okW, errW)
					}
				} else {
					tk := randTask(rng)
					resG, okG, errG := got.AdmitConstrained(implicit(tk))
					resW, okW, errW := want.Admit(tk)
					if errG != nil || errW != nil || okG != okW || !reflect.DeepEqual(resG, resW) {
						t.Fatalf("%s/%s op %d: admit diverged: %v %v / %v %v", adm.Name(), pol.Name(), op, okG, errG, okW, errW)
					}
				}
				sameEngineState(t, adm.Name()+"/"+pol.Name(), got, want)
			}
		}
	}

	e, err := NewEngine(task.Set{{WCET: 1, Period: 4}}, machine.New(1), Options{Admission: partition.EDFAdmission{}})
	if err != nil {
		t.Fatal(err)
	}
	long := task.Task{WCET: 1, Period: maxConstrainedPeriod + 1}
	if _, ok, err := e.AdmitConstrained(implicit(long)); err != nil || !ok {
		t.Fatalf("implicit task above the constrained period cap: admitted=%v err=%v", ok, err)
	}
	if _, _, err := e.AdmitBatchConstrained(dbf.Set{implicit(long)}, BestEffort); err != nil {
		t.Fatalf("implicit batch above the constrained period cap: %v", err)
	}
	if _, _, err := e.AdmitConstrained(dbf.Task{WCET: 1, Deadline: 2, Period: 8}); err == nil {
		t.Fatal("implicit engine admitted a constrained deadline")
	}
	if _, _, err := e.AdmitBatchConstrained(dbf.Set{{WCET: 1, Deadline: 2, Period: 8}}, BestEffort); err == nil {
		t.Fatal("implicit engine admitted a constrained batch")
	}
	if e.Len() != 3 {
		t.Fatalf("engine holds %d tasks, want 3", e.Len())
	}
}
