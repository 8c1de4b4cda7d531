package online

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/task"
)

// sameFloatBits compares float slices bitwise — restore must reproduce
// the exact fold floats, not merely close ones.
func sameFloatBits(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %x, want %x (values %v vs %v)",
				ctx, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// sameEngineState asserts the restored engine reproduced the original
// bit for bit: placement order, positions, assignments, and every
// per-machine fold sequence (caches like the capacity tree are
// excluded — they are lazily derived and never affect verdicts).
func sameEngineState(t *testing.T, ctx string, got, want *Engine) {
	t.Helper()
	if !reflect.DeepEqual(got.sorted, want.sorted) {
		t.Fatalf("%s: sorted = %v, want %v", ctx, got.sorted, want.sorted)
	}
	if !reflect.DeepEqual(got.pos, want.pos) {
		t.Fatalf("%s: pos mismatch", ctx)
	}
	if !reflect.DeepEqual(got.assign, want.assign) {
		t.Fatalf("%s: assign = %v, want %v", ctx, got.assign, want.assign)
	}
	if !reflect.DeepEqual(got.assignPub, want.assignPub) {
		t.Fatalf("%s: assignPub mismatch", ctx)
	}
	if !reflect.DeepEqual(got.tasks, want.tasks) {
		t.Fatalf("%s: tasks mismatch", ctx)
	}
	sameFloatBits(t, ctx+": utils", got.utils, want.utils)
	if len(got.machs) != len(want.machs) {
		t.Fatalf("%s: %d machines, want %d", ctx, len(got.machs), len(want.machs))
	}
	for j := range got.machs {
		g, w := &got.machs[j], &want.machs[j]
		if len(g.placed) != len(w.placed) {
			t.Fatalf("%s: machine %d placed %v, want %v", ctx, j, g.placed, w.placed)
		}
		for x := range g.placed {
			if g.placed[x] != w.placed[x] {
				t.Fatalf("%s: machine %d placed = %v, want %v", ctx, j, g.placed, w.placed)
			}
		}
		sameFloatBits(t, ctx+": cum", g.cum, w.cum)
		sameFloatBits(t, ctx+": cumProd", g.cumProd, w.cumProd)
		sameFloatBits(t, ctx+": cumDens", g.cumDens, w.cumDens)
		sameFloatBits(t, ctx+": cumNum", g.cumNum, w.cumNum)
		sameFloatBits(t, ctx+": cumInvP", g.cumInvP, w.cumInvP)
		if len(g.cumMaxD) != len(w.cumMaxD) {
			t.Fatalf("%s: machine %d cumMaxD length %d, want %d", ctx, j, len(g.cumMaxD), len(w.cumMaxD))
		}
		for x := range g.cumMaxD {
			if g.cumMaxD[x] != w.cumMaxD[x] {
				t.Fatalf("%s: machine %d cumMaxD mismatch at %d", ctx, j, x)
			}
		}
	}
	if !reflect.DeepEqual(got.dl, want.dl) || !reflect.DeepEqual(got.dens, want.dens) {
		t.Fatalf("%s: constrained per-task state mismatch", ctx)
	}
}

// TestRestoreArrivalDifferential drives a first-fit-arrival engine through
// random mixed ops — the history-dependent mode, where splices and
// tail re-admissions make placement a function of the whole op sequence
// — and periodically rebuilds it from Tasks() + PlacedLists(). The
// restored engine must match bit for bit AND answer the next admission
// probe identically (same verdict, witness, and load bits).
func TestRestoreArrivalDifferential(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 977))
			for inst := 0; inst < 6; inst++ {
				p := randPlatform(rng)
				e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 20}}, p, Options{Policy: FirstFitArrival(), Admission: adm})
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 120; op++ {
					switch k := rng.Intn(10); {
					case k < 5:
						if _, _, err := e.Admit(randTask(rng)); err != nil {
							t.Fatal(err)
						}
					case k < 7 && e.Len() > 1:
						if _, _, err := e.Remove(rng.Intn(e.Len())); err != nil {
							t.Fatal(err)
						}
					default:
						id := rng.Intn(e.Len())
						if _, _, err := e.UpdateWCET(id, 1+rng.Int63n(e.Tasks()[id].Period)); err != nil {
							t.Fatal(err)
						}
					}
					if op%20 != 19 {
						continue
					}
					r, err := NewEngine(e.Tasks(), p, Options{Policy: FirstFitArrival(), Admission: adm, Placed: e.PlacedLists()})
					if err != nil {
						t.Fatalf("inst %d op %d: Restore: %v", inst, op, err)
					}
					sameEngineState(t, "restore", r, e)
					if err := r.SelfCheck(); err != nil {
						t.Fatalf("inst %d op %d: restored SelfCheck: %v", inst, op, err)
					}
					probe := randTask(rng)
					resE, okE, errE := e.Admit(probe)
					resR, okR, errR := r.Admit(probe)
					if errE != nil || errR != nil || okE != okR {
						t.Fatalf("inst %d op %d: probe diverged: (%v,%v) vs (%v,%v)", inst, op, okE, errE, okR, errR)
					}
					sameResult(t, "probe", resR.Clone(), resE.Clone())
				}
			}
		})
	}
}

// TestRestoreSortedMatchesLive confirms the sorted-policy restore: after
// arbitrary committed mutations the live engine equals a fresh solve
// over its multiset, so a restore (which ignores Placed and re-solves)
// reproduces it.
func TestRestoreSortedMatchesLive(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 1409))
			p := randPlatform(rng)
			e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 20}}, p, Options{Admission: adm})
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 80; op++ {
				switch k := rng.Intn(10); {
				case k < 6:
					if _, _, err := e.Admit(randTask(rng)); err != nil {
						t.Fatal(err)
					}
				case k < 8 && e.Len() > 1:
					if _, _, err := e.Remove(rng.Intn(e.Len())); err != nil {
						t.Fatal(err)
					}
				default:
					id := rng.Intn(e.Len())
					if _, _, err := e.UpdateWCET(id, 1+rng.Int63n(e.Tasks()[id].Period)); err != nil {
						t.Fatal(err)
					}
				}
			}
			r, err := NewEngine(e.Tasks(), p, Options{Admission: adm, Placed: e.PlacedLists()})
			if err != nil {
				t.Fatal(err)
			}
			sameEngineState(t, "restore", r, e)
		})
	}
}

// TestRestoreConstrainedArrival is the first-fit-arrival differential for
// the constrained-deadline (tiered DBF) engine.
func TestRestoreConstrainedArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for inst := 0; inst < 4; inst++ {
		p := randDyadicPlatform(rng)
		e, err := NewEngine(task.Set{{WCET: 1, Period: 64}}, p, Options{Policy: FirstFitArrival(), Deadlines: []int64{64}, ApproxK: 4})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 120; op++ {
			switch c := rng.Intn(10); {
			case c < 5:
				if _, _, err := e.AdmitConstrained(randCTask(rng)); err != nil {
					t.Fatalf("op %d: Admit: %v", op, err)
				}
			case c < 7 && e.Len() > 1:
				if _, _, err := e.Remove(rng.Intn(e.Len())); err != nil {
					t.Fatalf("op %d: Remove: %v", op, err)
				}
			default:
				id := rng.Intn(e.Len())
				if _, _, err := e.UpdateWCET(id, 1+rng.Int63n(e.Deadline(id))); err != nil {
					t.Fatalf("op %d: Update: %v", op, err)
				}
			}
			if op%30 != 29 {
				continue
			}
			ts, dls := splitConstrained(e.ConstrainedTasks())
			r, err := NewEngine(ts, p, Options{Policy: FirstFitArrival(), Deadlines: dls, Placed: e.PlacedLists()})
			if err != nil {
				t.Fatalf("inst %d op %d: restore: %v", inst, op, err)
			}
			sameEngineState(t, "restore", r, e)
			if err := r.SelfCheck(); err != nil {
				t.Fatalf("inst %d op %d: restored SelfCheck: %v", inst, op, err)
			}
			probe := randCTask(rng)
			resE, okE, errE := e.AdmitConstrained(probe)
			resR, okR, errR := r.AdmitConstrained(probe)
			if errE != nil || errR != nil || okE != okR {
				t.Fatalf("inst %d op %d: probe diverged: (%v,%v) vs (%v,%v)", inst, op, okE, errE, okR, errR)
			}
			sameResult(t, "probe", resR.Clone(), resE.Clone())
		}
	}
}

// TestRestoreRejectsInconsistentPlacement: restore re-verifies every
// recorded placement with the engine's own admission predicate, so a
// tampered or half-written snapshot is rejected instead of resurrected.
func TestRestoreRejectsInconsistentPlacement(t *testing.T) {
	p := machine.New(1, 1)
	ts := task.Set{{WCET: 3, Period: 5}, {WCET: 3, Period: 5}} // u = 0.6 each
	adm := testAdmissions[0]                                   // EDF

	cases := []struct {
		name   string
		placed [][]int32
	}{
		{"overloaded machine", [][]int32{{0, 1}, {}}},
		{"task placed twice", [][]int32{{0, 0}, {1}}},
		{"task missing", [][]int32{{0}, {}}},
		{"id out of range", [][]int32{{0}, {7}}},
		{"machine count mismatch", [][]int32{{0, 1}}},
		{"empty record", [][]int32{}},
	}
	for _, tc := range cases {
		if _, err := NewEngine(ts, p, Options{Policy: FirstFitArrival(), Admission: adm, Placed: tc.placed}); err == nil {
			t.Errorf("%s: restore accepted inconsistent placement", tc.name)
		}
	}

	// The legitimate split restores fine.
	if _, err := NewEngine(ts, p, Options{Policy: FirstFitArrival(), Admission: adm, Placed: [][]int32{{0}, {1}}}); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}
