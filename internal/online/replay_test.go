package online

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// TestEngineMatchesRebuild drives each structural mutation — Admit,
// Remove, UpdateWCET (which re-sorts the edited task), their forced
// forms, and a full repartition — and then requires the live engine to
// be indistinguishable from an engine freshly built over the surviving
// task set and from a fresh sorted solve: same result bits, feasible or
// not.
func TestEngineMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(104729))
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
			admit, remove, update := e.Admit, e.Remove, e.UpdateWCET
			if force {
				admit, remove, update = e.ForceAdmit, e.ForceRemove, e.ForceUpdateWCET
			}
			var res partition.Result
			switch k := rng.Intn(10); {
			case k < 3:
				res, _, err = admit(randTask(rng))
			case k < 6 && e.Len() > 1:
				res, _, err = remove(rng.Intn(e.Len()))
			case k < 8:
				id := rng.Intn(e.Len())
				res, _, err = update(id, 1+rng.Int63n(e.Tasks()[id].Period))
			default:
				pl, perr := e.PlanRepartition()
				if perr != nil {
					t.Fatal(perr)
				}
				if pl.TargetFeasible {
					_, err = e.ApplyRepartition(pl, -1)
				}
				res = e.Result()
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
					admit, remove, update := e.Admit, e.Remove, e.UpdateWCET
					if force {
						admit, remove, update = e.ForceAdmit, e.ForceRemove, e.ForceUpdateWCET
					}
					switch k := rng.Intn(12); {
					case k < 4:
						tk := randTask(rng)
						_, ok, err := admit(tk)
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
						_, ok, err := remove(id)
						if err != nil {
							t.Fatal(err)
						}
						if ok || force {
							cur = append(cur[:id:id].Clone(), cur[id+1:]...)
						}
					default:
						id := rng.Intn(len(cur))
						wcet := 1 + rng.Int63n(cur[id].Period)
						_, ok, err := update(id, wcet)
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
// instance and the operations: the bytes pick the admission, the
// platform, and then one op at a time — its kind and, for a single
// admit, removal or WCET update, whether it is forced (the op byte's
// high bit), then its operands
// (task shapes, batch size, victim id, new WCET) — from the same mix of
// single admits, batches in both modes, removals and WCET updates on a
// sorted-policy engine. After every op the engine must pass SelfCheck
// and match the fresh sorted solve of the mirrored multiset.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte("\x00\x03\x40\x80\xc0\x00\x30\x20\x04\x02\x50\x10\x60\x08\x05\x09\x0a\x07\x0b\x03\x90"))
	f.Add([]byte("\x02\x05\x10\x20\x30\x40\x50\x06\x03\x7f\x33\x22\x11\x01\x18\x81\x09\x00\x0b\x01\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nextTask := func() task.Task {
			per := int64(2 + 4*next())
			return task.Task{WCET: 1 + int64(next())*per/256, Period: per}
		}
		nextBatch := func() []task.Task {
			bt := make([]task.Task, 1+next()%12)
			for i := range bt {
				bt[i] = nextTask()
			}
			return bt
		}
		adm := testAdmissions[next()%len(testAdmissions)]
		speeds := make([]float64, 1+next()%6)
		for j := range speeds {
			speeds[j] = 0.25 + float64(next())/64
		}
		p := machine.New(speeds...)
		cur := task.Set{{WCET: 1, Period: 1 << 20}}
		e, err := NewEngine(cur, p, Options{Admission: adm})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; len(data) > 0 && op < 64; op++ {
			b := next()
			force := b >= 0x80 // for single admits, removals and WCET updates
			admit, remove, update := e.Admit, e.Remove, e.UpdateWCET
			if force {
				admit, remove, update = e.ForceAdmit, e.ForceRemove, e.ForceUpdateWCET
			}
			switch k := b % 12; {
			case k < 4:
				tk := nextTask()
				if _, ok, err := admit(tk); err != nil {
					t.Fatal(err)
				} else if ok || force {
					cur = append(cur.Clone(), tk)
				}
			case k < 8:
				mode := BestEffort
				if k >= 6 {
					mode = AllOrNothing
				}
				bt := nextBatch()
				_, admitted, err := e.AdmitBatch(bt, mode)
				if err != nil {
					t.Fatal(err)
				}
				if n := countTrue(admitted); mode == AllOrNothing && n != 0 && n != len(bt) {
					t.Fatalf("op %d: all-or-nothing admitted %d/%d", op, n, len(bt))
				}
				grown := cur.Clone()
				for i, ok := range admitted {
					if ok {
						grown = append(grown, bt[i])
					}
				}
				cur = grown
			case k < 10 && len(cur) > 1:
				id := next() % len(cur)
				if _, ok, err := remove(id); err != nil {
					t.Fatal(err)
				} else if ok || force {
					cur = append(cur[:id:id].Clone(), cur[id+1:]...)
				}
			default:
				id := next() % len(cur)
				wcet := 1 + int64(next())*cur[id].Period/256
				if _, ok, err := update(id, wcet); err != nil {
					t.Fatal(err)
				} else if ok || force {
					cur = cur.Clone()
					cur[id].WCET = wcet
				}
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			sameResult(t, "fuzz", e.Result().Clone(), freshSorted(t, cur, p, adm, 1))
			if !reflect.DeepEqual(e.Tasks(), cur) {
				t.Fatalf("op %d: resident multiset diverged", op)
			}
		}
	})
}
