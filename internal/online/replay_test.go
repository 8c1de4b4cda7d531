package online

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// TestEngineMatchesRebuild drives each structural mutation — Admit,
// Remove, UpdateWCET (which re-sorts the edited task), their forced
// forms, head admissions no machine takes, and a full repartition — and
// then requires the live engine to be indistinguishable from an engine
// freshly built over the surviving task set and from a fresh sorted
// solve: same result bits, feasible or not. Every single-task op also
// runs through its Summary call on a twin (singleOp.apply), and a
// refusal's witness is held to the fresh solve of the candidate set.
func TestEngineMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(104729))
	heads := [2]int{} // head refusals on a feasible engine, on a failing one
	for inst := 0; inst < 8; inst++ {
		p := randPlatform(rng)
		adm := testAdmissions[inst%len(testAdmissions)]
		ts := make(task.Set, 0, 80)
		for len(ts) < 80 {
			ts = append(ts, task.Task{WCET: 1, Period: int64(40 + len(ts))})
		}
		e, err := NewEngine(ts, p, Options{Admission: adm})
		if err != nil {
			// Random platform may be too slow for the dense seed set;
			// thin it out until the seed fits.
			continue
		}
		for op := 0; op < 60; op++ {
			force := rng.Intn(3) == 0
			var res partition.Result
			single := true
			var sop singleOp
			switch k := rng.Intn(12); {
			case k < 3:
				sop = singleOp{kind: opAdmit, tk: randTask(rng)}
			case k < 6 && e.Len() > 1:
				sop = singleOp{kind: opDrop, id: rng.Intn(e.Len())}
			case k < 8:
				id := rng.Intn(e.Len())
				sop = singleOp{kind: opWCET, id: id, wcet: 1 + rng.Int63n(e.Tasks()[id].Period)}
			case k < 10:
				sop = singleOp{kind: opAdmit, tk: headTask(rng)}
				if !force {
					heads[b2i(!e.Feasible())]++
				}
			default:
				single = false
				pl, perr := e.PlanRepartition()
				if perr != nil {
					t.Fatal(perr)
				}
				if pl.TargetFeasible {
					_, err = e.ApplyRepartition(pl, -1)
				}
				res = e.Result()
			}
			if single {
				sop.force = force
				res, _ = sop.apply(t, e)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatalf("inst %d op %d: %v", inst, op, err)
			}
			want := freshSorted(t, e.Tasks(), p, adm, e.Alpha())
			sameResult(t, "fresh solve", e.Result().Clone(), want)
			if force {
				sameResult(t, "forced op's result", res.Clone(), want)
			}
			fresh, err := NewEngine(e.Tasks(), p, Options{Admission: adm, Alpha: e.Alpha()})
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("inst %d op %d: rebuilt engine: %v", inst, op, err)
			}
			sameResult(t, "rebuilt", e.Result().Clone(), fresh.Result().Clone())
		}
	}
	if heads[0] == 0 || heads[1] == 0 {
		t.Fatalf("head refusals: %d on feasible engines, %d on failing ones; want both", heads[0], heads[1])
	}
}

// headTask has a utilization above every test platform's fastest speed,
// so it sorts first and no machine admits it: a head refusal, answered
// without insertion unless forced.
func headTask(rng *rand.Rand) task.Task {
	per := int64(2 + rng.Intn(1000))
	return task.Task{WCET: 5 * per, Period: per}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The single-task op kinds singleOp drives.
const (
	opAdmit = iota
	opDrop
	opWCET
)

// singleOp is one admission, removal or WCET update, plain or forced.
type singleOp struct {
	kind  int
	tk    task.Task // opAdmit
	dl    int64     // opAdmit: tk's relative deadline, 0 for D = P
	id    int       // opDrop, opWCET
	wcet  int64     // opWCET
	force bool
}

// ctask is the admitted task with its deadline.
func (op singleOp) ctask() dbf.Task {
	d := op.dl
	if d == 0 {
		d = op.tk.Period
	}
	return dbf.Task{Name: op.tk.Name, WCET: op.tk.WCET, Deadline: d, Period: op.tk.Period}
}

// plain is op's plain call on e, which answers the full result.
func (op singleOp) plain(e *Engine) (partition.Result, bool, error) {
	switch {
	case op.kind == opAdmit && op.dl == 0:
		return e.Admit(op.tk)
	case op.kind == opAdmit:
		return e.AdmitConstrained(op.ctask())
	case op.kind == opDrop:
		return e.Remove(op.id)
	}
	return e.UpdateWCET(op.id, op.wcet)
}

// summary is op's Summary call on e, forced when op is.
func (op singleOp) summary(e *Engine) (Summary, error) {
	switch op.kind {
	case opAdmit:
		return e.AdmitSummary(op.ctask(), op.force)
	case opDrop:
		return e.RemoveSummary(op.id, op.force)
	}
	return e.UpdateWCETSummary(op.id, op.wcet, op.force)
}

// run applies op to e and returns its full result and verdict: the
// plain call's, or for a forced op, which has no plain call and always
// commits, the Summary call's verdict and the state it leaves.
func (op singleOp) run(e *Engine) (partition.Result, bool, error) {
	if !op.force {
		return op.plain(e)
	}
	sum, err := op.summary(e)
	return e.Result(), sum.Feasible, err
}

// rebuilt is a fresh engine over e's resident multiset, options and
// deadlines, and NewEngine's error (ErrInfeasible with a failing one).
func rebuilt(e *Engine) (*Engine, error) {
	return NewEngine(e.Tasks(), e.p, Options{Admission: e.adm, Alpha: e.alpha, Deadlines: slices.Clone(e.dl)})
}

// freshOf is the fresh solve of cand at e's augmentation:
// dbf.FirstFitResult on a constrained engine, the sorted partition solve
// under e's admission test otherwise.
func freshOf(t *testing.T, e *Engine, cand dbf.Set) partition.Result {
	t.Helper()
	if e.kind != admDBF {
		ts, _ := splitConstrained(cand)
		return freshSorted(t, ts, e.p, e.adm, e.alpha)
	}
	res, err := dbf.FirstFitResult(cand, e.p, e.alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// apply runs op on e (run) and, on a twin rebuilt from e's multiset,
// through its Summary call. The Summary must describe exactly what the
// full result does (verdict, failed task, load bits, the op task's
// assignment entry), the twin must end in e's state, and a plain
// refusal's witness must be the fresh solve of the candidate multiset.
// It returns the full result and verdict.
func (op singleOp) apply(t *testing.T, e *Engine) (partition.Result, bool) {
	t.Helper()
	twin, err := rebuilt(e)
	if err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	cand := e.ConstrainedTasks()
	entry := -1 // the op task's index in res's assignment
	switch op.kind {
	case opAdmit:
		cand = append(cand, op.ctask())
		entry = len(cand) - 1
	case opDrop:
		cand = append(cand[:op.id], cand[op.id+1:]...)
	default:
		cand[op.id].WCET = op.wcet
		entry = op.id
	}
	res, ok, err := op.run(e)
	sum, serr := op.summary(twin)
	if err != nil || serr != nil {
		t.Fatalf("%+v: plain err %v, summary err %v", op, err, serr)
	}
	want := Summary{Feasible: res.Feasible, FailedTask: res.FailedTask, Loads: res.Loads, Machine: -1}
	if entry >= 0 && entry < len(res.Assignment) {
		want.Machine = res.Assignment[entry]
	}
	if sum.Feasible != ok || sum.Feasible != want.Feasible || sum.FailedTask != want.FailedTask || sum.Machine != want.Machine ||
		!reflect.DeepEqual(bitsOf(sum.Loads), bitsOf(want.Loads)) {
		t.Fatalf("%+v: summary %+v, plain result describes %+v (verdict %v)", op, sum, want, ok)
	}
	if !ok && !op.force {
		sameResult(t, "refusal witness", res.Clone(), freshOf(t, e, cand))
	}
	if err := twin.SelfCheck(); err != nil {
		t.Fatalf("%+v: twin: %v", op, err)
	}
	sameResult(t, "summary twin", twin.Result().Clone(), e.Result().Clone())
	return res, ok
}

// bitsOf is fs as raw float64 bits, so comparisons tell -0 from 0.
func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestEngineFuzzOps is the widest randomized cross-check: arbitrary
// interleavings of single admits, batches in both modes, removals, and
// WCET updates (singles plain or forced, so the engine passes in and out
// of failure states) on a sorted-policy engine, with the fresh sorted
// solve of the independently-mirrored multiset as the oracle after every
// single operation, plus a full SelfCheck (which verifies fold bits,
// position maps, the failure position, the public assignment mirror, and
// position-ordered placed lists).
func TestEngineFuzzOps(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 52711))
			held, recovered := 0, 0 // steps ending infeasible; infeasible → feasible steps
			for inst := 0; inst < 8; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Admission: adm})
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 100; op++ {
					wasFeasible := e.Feasible()
					force := rng.Intn(4) == 0
					switch k := rng.Intn(12); {
					case k < 4:
						tk := randTask(rng)
						_, ok, err := singleOp{kind: opAdmit, tk: tk, force: force}.run(e)
						if err != nil {
							t.Fatal(err)
						}
						if ok || force {
							cur = append(cur.Clone(), tk)
						}
					case k < 6:
						bt := randBatch(rng)
						_, admitted, err := e.AdmitBatch(bt, BestEffort)
						if err != nil {
							t.Fatal(err)
						}
						next := cur.Clone()
						for i, ok := range admitted {
							if ok {
								next = append(next, bt[i])
							}
						}
						cur = next
					case k < 8:
						bt := randBatch(rng)
						_, admitted, err := e.AdmitBatch(bt, AllOrNothing)
						if err != nil {
							t.Fatal(err)
						}
						if n := countTrue(admitted); n != 0 && n != len(bt) {
							t.Fatalf("inst %d op %d: all-or-nothing admitted %d/%d", inst, op, n, len(bt))
						}
						if countTrue(admitted) == len(bt) {
							cur = append(cur.Clone(), bt...)
						}
					case k < 10 && len(cur) > 1:
						id := rng.Intn(len(cur))
						_, ok, err := singleOp{kind: opDrop, id: id, force: force}.run(e)
						if err != nil {
							t.Fatal(err)
						}
						if ok || force {
							cur = append(cur[:id:id].Clone(), cur[id+1:]...)
						}
					default:
						id := rng.Intn(len(cur))
						wcet := 1 + rng.Int63n(cur[id].Period)
						_, ok, err := singleOp{kind: opWCET, id: id, wcet: wcet, force: force}.run(e)
						if err != nil {
							t.Fatal(err)
						}
						if ok || force {
							cur = cur.Clone()
							cur[id].WCET = wcet
						}
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d op %d: %v", inst, op, err)
					}
					sameResult(t, "fuzz", e.Result().Clone(), freshSorted(t, cur, p, adm, 1))
					if !reflect.DeepEqual(e.Tasks(), cur) {
						t.Fatalf("inst %d op %d: resident multiset diverged", inst, op)
					}
					if !e.Feasible() {
						held++
					} else if !wasFeasible {
						recovered++
					}
				}
			}
			if held == 0 || recovered == 0 {
				t.Fatalf("op mix never held a failure state (%d) or left one (%d)", held, recovered)
			}
		})
	}
}

// FuzzEngineOps is TestEngineFuzzOps with the fuzzer choosing the
// instance and the operations: the bytes pick the admission (one of
// testAdmissions, or the constrained-deadline DBF pipeline), the
// platform, and then one op at a time — its kind and, for a single
// admit, removal or WCET update, whether it is forced (the op byte's
// high bit), then its operands (task shapes, batch size, victim id, new
// WCET) — from the same mix of single admits (a quarter of them head
// refusals on an implicit engine, density-1 tasks on a constrained
// one), batches in both modes, removals and WCET updates on a
// sorted-policy engine. Constrained tasks keep the dyadic shapes of
// TestEngineDBFSortedDifferential (power-of-two periods up to 64), so
// the exact test never errors. Single ops run through singleOp.apply,
// so their Summary calls and refusal witnesses are checked too. After
// every op the engine must pass SelfCheck and match the fresh solve of
// the mirrored multiset (freshOf: dbf.FirstFit for constrained engines),
// feasible or not.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte("\x00\x03\x40\x80\xc0\x00\x30\x20\x04\x02\x50\x10\x60\x08\x05\x09\x0a\x07\x0b\x03\x90"))
	f.Add([]byte("\x02\x05\x10\x20\x30\x40\x50\x06\x03\x7f\x33\x22\x11\x01\x18\x81\x09\x00\x0b\x01\xff"))
	// Head refusals on a feasible engine and on one holding the failure
	// state a forced head admit leaves, a standing-failure admit past
	// that position, then the removal that makes the set feasible again.
	f.Add([]byte("\x00\x02\x40\x40\x40\x03\x10\x40\x87\x10\x40\x03\x20\x40\x00\x30\x08\x08\x01\x03\x11\x22"))
	// A constrained engine on two slow machines: a forced density-1 admit
	// no machine takes leaves a failure state, a plain admit past it is
	// refused, a second forced head admit, a forced WCET update that
	// leaves the first head behind the second, the removal of the failed
	// task that makes the set feasible again, and a best-effort batch.
	f.Add([]byte("\x03\x01\x20\x10\x87\x02\xc0\x00\x00\x00\x40\x01\x87\x02\xc0\x00\x8e\x01\x40\x08\x02\x04\x01\x00\x10\x00\x01\x10\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		a := next() % (len(testAdmissions) + 1)
		constrained := a == len(testAdmissions)
		// nextTask draws a task and its deadline (0: D = P); head asks for
		// one that sorts first.
		nextTask := func(head bool) (task.Task, int64) {
			if constrained {
				per := int64(4) << (next() % 5)
				c := 1 + int64(next())*per/256
				d := c + int64(next())%(per-c+1)
				if head {
					d = c // density 1
				}
				return task.Task{WCET: c, Period: per}, d
			}
			per := int64(2 + 4*next())
			tk := task.Task{WCET: 1 + int64(next())*per/256, Period: per}
			if head {
				tk.WCET = 5 * tk.Period // a head refusal (every speed is below 5)
			}
			return tk, 0
		}
		ctask := func(tk task.Task, d int64) dbf.Task {
			return singleOp{tk: tk, dl: d}.ctask()
		}
		opts := Options{}
		if constrained {
			opts.Deadlines = []int64{1 << 20}
		} else {
			opts.Admission = testAdmissions[a]
		}
		speeds := make([]float64, 1+next()%6)
		for j := range speeds {
			speeds[j] = 0.25 + float64(next())/64
		}
		p := machine.New(speeds...)
		cur := dbf.Set{{WCET: 1, Deadline: 1 << 20, Period: 1 << 20}}
		e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 20}}, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; len(data) > 0 && op < 64; op++ {
			b := next()
			force := b >= 0x80 // for single admits, removals and WCET updates
			switch k := b % 12; {
			case k < 4:
				tk, d := nextTask(k == 3)
				if _, ok := (singleOp{kind: opAdmit, tk: tk, dl: d, force: force}).apply(t, e); ok || force {
					cur = append(slices.Clone(cur), ctask(tk, d))
				}
			case k < 8:
				mode := BestEffort
				if k >= 6 {
					mode = AllOrNothing
				}
				bt := make(dbf.Set, 1+next()%12)
				for i := range bt {
					bt[i] = ctask(nextTask(false))
				}
				_, admitted, err := e.AdmitBatchConstrained(bt, mode)
				if err != nil {
					t.Fatal(err)
				}
				if n := countTrue(admitted); mode == AllOrNothing && n != 0 && n != len(bt) {
					t.Fatalf("op %d: all-or-nothing admitted %d/%d", op, n, len(bt))
				}
				grown := slices.Clone(cur)
				for i, ok := range admitted {
					if ok {
						grown = append(grown, bt[i])
					}
				}
				cur = grown
			case k < 10 && len(cur) > 1:
				id := next() % len(cur)
				if _, ok := (singleOp{kind: opDrop, id: id, force: force}).apply(t, e); ok || force {
					cur = slices.Delete(slices.Clone(cur), id, id+1)
				}
			default:
				id := next() % len(cur)
				wcet := 1 + int64(next())*cur[id].Deadline/256
				if _, ok := (singleOp{kind: opWCET, id: id, wcet: wcet, force: force}).apply(t, e); ok || force {
					cur = slices.Clone(cur)
					cur[id].WCET = wcet
				}
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			sameResult(t, "fuzz", e.Result().Clone(), freshOf(t, e, cur))
			if !reflect.DeepEqual(e.ConstrainedTasks(), cur) {
				t.Fatalf("op %d: resident multiset diverged", op)
			}
		}
	})
}
