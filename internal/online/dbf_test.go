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

// freshDBF is the differential reference: the offline constrained
// first-fit with per-probe exact FeasibleEDF admission.
func freshDBF(ts dbf.Set, p machine.Platform, alpha float64) (bool, []int, error) {
	return dbf.FirstFit(ts, p, alpha, 0)
}

func sameAssign(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: assignment = %v, want %v", ctx, got, want)
	}
}

// checkOp compares one engine mutation against the fresh reference
// solve over the candidate multiset. Both sides must agree on the
// verdict, the assignment, and — when the exact analysis itself fails —
// on failing, with the engine left untouched.
func checkOp(t *testing.T, ctx string, res partition.Result, ok bool, opErr error,
	feas bool, as []int, refErr error) (applied bool) {
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
	if ok != feas {
		t.Fatalf("%s: verdict = %v, fresh = %v", ctx, ok, feas)
	}
	sameAssign(t, ctx, append([]int(nil), res.Assignment...), as)
	return ok
}

// TestEngineDBFSortedDifferential is the tentpole's acceptance test:
// over randomized Admit/Remove/UpdateWCET/AdmitBatch sequences on
// constrained-deadline sets, every sorted-policy engine verdict and
// assignment must be identical to a fresh dbf.FirstFit (exact-admission)
// solve over the surviving multiset — no matter which tier answered.
// Options.ApproxK is ignored, so the three k sub-tests run the same
// density-and-exact pipeline on different seeds. The three
// sub-tests × instances × ops exceed 10k compared mutations.
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
			for inst := 0; inst < instances; inst++ {
				p := randDyadicPlatform(rng)
				alpha := []float64{1, 1, 1.5, 2.5}[rng.Intn(4)]
				cur := dbf.Set{{WCET: 1, Deadline: 64, Period: 64}}
				seedTS, seedDls := splitConstrained(cur)
				e, err := NewEngine(seedTS, p, Options{Alpha: alpha, Deadlines: seedDls, ApproxK: k})
				if err != nil {
					t.Fatalf("inst %d: seed engine: %v", inst, err)
				}
				for op := 0; op < opsPer; op++ {
					ctx := fmt.Sprintf("inst %d op %d", inst, op)
					switch c := rng.Intn(10); {
					case c < 4: // admit
						tk := randCTask(rng)
						cand := append(cloneCSet(cur), tk)
						feas, as, refErr := freshDBF(cand, p, alpha)
						res, ok, err := e.AdmitConstrained(tk)
						if checkOp(t, ctx+" admit", res, ok, err, feas, as, refErr) {
							cur = cand
						}
					case c < 6 && len(cur) > 1: // remove
						id := rng.Intn(len(cur))
						shr := append(cloneCSet(cur[:id]), cur[id+1:]...)
						feas, as, refErr := freshDBF(shr, p, alpha)
						res, ok, err := e.Remove(id)
						if checkOp(t, ctx+" remove", res, ok, err, feas, as, refErr) {
							cur = shr
						}
					case c < 8: // update WCET
						id := rng.Intn(len(cur))
						w := 1 + rng.Int63n(cur[id].Deadline)
						upd := cloneCSet(cur)
						upd[id].WCET = w
						feas, as, refErr := freshDBF(upd, p, alpha)
						res, ok, err := e.UpdateWCET(id, w)
						if checkOp(t, ctx+" update", res, ok, err, feas, as, refErr) {
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
							feas, as, refErr := freshDBF(union, p, alpha)
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
								if a != feas {
									t.Fatalf("%s: batch admitted[%d]=%v, fresh=%v", ctx, i, a, feas)
								}
							}
							if feas {
								cur = union
								sameAssign(t, ctx+" batch", append([]int(nil), e.Result().Assignment...), as)
							}
						} else { // BestEffort = sequential-admit semantics
							wantAdm := make([]bool, bn)
							mirror := cloneCSet(cur)
							refFailed := false
							for i, tk := range batch {
								cand := append(cloneCSet(mirror), tk)
								feas, _, refErr := freshDBF(cand, p, alpha)
								if refErr != nil {
									refFailed = true
									break
								}
								wantAdm[i] = feas
								if feas {
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
					// The engine's resident state must match a fresh solve
					// after every few mutations, and its internals verify.
					if op%13 == 0 || op == opsPer-1 {
						_, as, refErr := freshDBF(cur, p, alpha)
						if refErr != nil {
							t.Fatalf("inst %d op %d: fresh state solve: %v", inst, op, refErr)
						}
						sameAssign(t, "state", append([]int(nil), e.Result().Assignment...), as)
						if err := e.SelfCheck(); err != nil {
							t.Fatalf("inst %d op %d: SelfCheck: %v", inst, op, err)
						}
					}
					if got := e.Len(); got != len(cur) {
						t.Fatalf("inst %d op %d: %d resident, want %d", inst, op, got, len(cur))
					}
				}
				if k >= 1 {
					d, a, x := e.TierCounts()
					if d+a+x == 0 {
						t.Fatalf("inst %d: tiered engine recorded no tier decisions", inst)
					}
				}
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
