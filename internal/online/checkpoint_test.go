package online

import (
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/task"
)

// withStride swaps the engine's checkpoint table for one with the given
// stride and rebuilds it from scratch. Tests use it to pin that the
// stride is a pure performance knob: every stride — including the
// degenerate ones — must produce byte-identical decisions.
func withStride(t *testing.T, e *Engine, stride int) {
	t.Helper()
	e.cps = newCheckpoints(stride, len(e.machs))
	e.cps.rebuildFrom(e, 0)
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("stride %d: %v", stride, err)
	}
}

// TestCheckpointStrides runs one mixed mutation sequence against
// engines that differ only in checkpoint stride (1 = checkpoint every
// position, 7 = misaligned, 64 = production, 1<<20 = effectively no
// checkpoints) and requires identical verdicts and bit-identical state
// after every operation.
func TestCheckpointStrides(t *testing.T) {
	strides := []int{1, 7, 64, 1 << 20}
	rng := rand.New(rand.NewSource(40487))
	for inst := 0; inst < 6; inst++ {
		p := randPlatform(rng)
		seed := task.Set{{WCET: 1, Period: 1 << 20}}
		engines := make([]*Engine, len(strides))
		for i, st := range strides {
			e, err := NewEngine(seed, p, Options{Admission: testAdmissions[inst%len(testAdmissions)]})
			if err != nil {
				t.Fatal(err)
			}
			withStride(t, e, st)
			engines[i] = e
		}
		for op := 0; op < 120; op++ {
			k := rng.Intn(10)
			id := rng.Intn(engines[0].Len())
			tk := randTask(rng)
			wcet := 1 + rng.Int63n(engines[0].Tasks()[id].Period)
			bt := randBatch(rng)
			var ref bool
			for i, e := range engines {
				var ok bool
				var err error
				switch {
				case k < 4:
					_, ok, err = e.Admit(tk)
				case k < 6:
					var admitted []bool
					_, admitted, err = e.AdmitBatch(bt, BestEffort)
					ok = countTrue(admitted) == len(bt)
				case k < 8 && e.Len() > 1:
					_, ok, err = e.Remove(id % e.Len())
				default:
					_, ok, err = e.UpdateWCET(id%e.Len(), wcet)
				}
				if err != nil {
					t.Fatalf("inst %d op %d stride %d: %v", inst, op, strides[i], err)
				}
				if i == 0 {
					ref = ok
				} else if ok != ref {
					t.Fatalf("inst %d op %d: stride %d verdict %v, stride %d verdict %v",
						inst, op, strides[0], ref, strides[i], ok)
				}
				if err := e.SelfCheck(); err != nil {
					t.Fatalf("inst %d op %d stride %d: %v", inst, op, strides[i], err)
				}
				if i > 0 {
					sameResult(t, "stride", e.Result().Clone(), engines[0].Result().Clone())
				}
			}
		}
	}
}

// TestCheckpointInvalidation drives each structural mutation that can
// invalidate checkpoint rows — Remove, UpdateWCET (which re-sorts the
// edited task), and a full repartition — and then requires the live
// engine to be indistinguishable from an engine freshly built over the
// surviving task set: same result bits, same checkpoint table.
func TestCheckpointInvalidation(t *testing.T) {
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
			switch k := rng.Intn(10); {
			case k < 3:
				if _, _, err := e.Admit(randTask(rng)); err != nil {
					t.Fatal(err)
				}
			case k < 6 && e.Len() > 1:
				if _, _, err := e.Remove(rng.Intn(e.Len())); err != nil {
					t.Fatal(err)
				}
			case k < 8:
				id := rng.Intn(e.Len())
				wcet := 1 + rng.Int63n(e.Tasks()[id].Period)
				if _, _, err := e.UpdateWCET(id, wcet); err != nil {
					t.Fatal(err)
				}
			default:
				pl, err := e.PlanRepartition()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.ApplyRepartition(pl, -1); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatalf("inst %d op %d: %v", inst, op, err)
			}
			fresh, err := NewEngine(e.Tasks(), p, Options{Admission: adm, Alpha: e.Alpha()})
			if err != nil {
				t.Fatalf("inst %d op %d: rebuilt engine: %v", inst, op, err)
			}
			sameResult(t, "rebuilt", e.Result().Clone(), fresh.Result().Clone())
			if len(e.cps.plen) != len(fresh.cps.plen) {
				t.Fatalf("inst %d op %d: %d checkpoint rows, rebuilt %d",
					inst, op, len(e.cps.plen), len(fresh.cps.plen))
			}
			for c := range e.cps.plen {
				if !reflect.DeepEqual(e.cps.plen[c], fresh.cps.plen[c]) {
					t.Fatalf("inst %d op %d: checkpoint row %d = %v, rebuilt %v",
						inst, op, c, e.cps.plen[c], fresh.cps.plen[c])
				}
			}
		}
	}
}

// TestEngineFuzzOps is the widest randomized cross-check: arbitrary
// interleavings of single admits, batches in both modes, removals, and
// WCET updates on a sorted-policy engine, with the fresh sorted solve of
// the independently-mirrored multiset as the oracle after every single
// operation, plus a full SelfCheck (which verifies fold bits, position
// maps, the public assignment mirror, and checkpoint exactness).
func TestEngineFuzzOps(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 52711))
			for inst := 0; inst < 8; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Admission: adm})
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 100; op++ {
					switch k := rng.Intn(12); {
					case k < 4:
						tk := randTask(rng)
						_, ok, err := e.Admit(tk)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
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
						_, ok, err := e.Remove(id)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
							cur = append(cur[:id:id].Clone(), cur[id+1:]...)
						}
					default:
						id := rng.Intn(len(cur))
						wcet := 1 + rng.Int63n(cur[id].Period)
						_, ok, err := e.UpdateWCET(id, wcet)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
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
				}
			}
		})
	}
}
