package online

import (
	"math"
	"math/rand"
	"testing"

	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// TestRepartitionSortedNoDrift: a sorted-policy engine tracks the paper's
// solve exactly, so its plan is always empty with bitwise-zero load
// deltas — the "drift" the repartitioner measures is purely the
// arrival-order gap.
func TestRepartitionSortedNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for inst := 0; inst < 8; inst++ {
		p := randPlatform(rng)
		e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 20}}, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, _, err := e.Admit(randTask(rng)); err != nil {
				t.Fatal(err)
			}
		}
		pl, err := e.PlanRepartition()
		if err != nil {
			t.Fatal(err)
		}
		if !pl.TargetFeasible {
			t.Fatal("target must be feasible: the engine state IS the sorted solve")
		}
		if len(pl.Moves) != 0 {
			t.Fatalf("sorted engine drifted: %v", pl.Moves)
		}
		if pl.MaxLoadDelta != 0 {
			t.Fatalf("sorted engine load delta %v, want 0", pl.MaxLoadDelta)
		}
		if pl.DriftFraction(e.Len()) != 0 {
			t.Fatal("drift fraction must be 0")
		}
	}
}

// driftedEngine builds a first-fit-arrival engine whose placement has
// drifted from the sorted solve: ascending-utilization arrivals are
// first-fit's worst case (Lupu et al.'s ordering sensitivity).
func driftedEngine(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		p := randPlatform(rng)
		e, err := NewEngine(task.Set{{WCET: 1, Period: 1 << 20}}, p, Options{Policy: FirstFitArrival(), Admission: partition.EDFAdmission{}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			per := int64(64 + rng.Intn(64))
			wc := 1 + int64(i)*per/64
			if wc > per {
				wc = per
			}
			if _, _, err := e.Admit(task.Task{WCET: wc, Period: per}); err != nil {
				t.Fatal(err)
			}
		}
		pl, err := e.PlanRepartition()
		if err != nil {
			t.Fatal(err)
		}
		if pl.TargetFeasible && len(pl.Moves) > 0 {
			return e
		}
	}
	t.Fatal("could not construct a drifted arrival engine")
	return nil
}

// TestRepartitionApplyFull applies a full plan and checks the engine
// lands exactly on the target: same assignment, bitwise-same loads, and
// a subsequent plan shows zero drift.
func TestRepartitionApplyFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for inst := 0; inst < 6; inst++ {
		e := driftedEngine(t, rng)
		pl, err := e.PlanRepartition()
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.ApplyRepartition(pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(pl.Moves) {
			t.Fatalf("applied %d moves, plan had %d", n, len(pl.Moves))
		}
		if err := e.SelfCheck(); err != nil {
			t.Fatal(err)
		}
		res := e.Result()
		for id, j := range pl.Target.Assignment {
			if res.Assignment[id] != j {
				t.Fatalf("task %d on machine %d, target %d", id, res.Assignment[id], j)
			}
		}
		for j := range res.Loads {
			if math.Float64bits(res.Loads[j]) != math.Float64bits(pl.Target.Loads[j]) {
				t.Fatalf("load[%d] = %v, target %v", j, res.Loads[j], pl.Target.Loads[j])
			}
		}
		pl2, err := e.PlanRepartition()
		if err != nil {
			t.Fatal(err)
		}
		if len(pl2.Moves) != 0 {
			t.Fatalf("drift remains after full apply: %v", pl2.Moves)
		}
	}
}

// TestRepartitionApplyPartial drains drift in bounded rounds: every
// round applies at most maxMoves individually-feasible migrations, the
// engine self-checks after each, and the drift count never increases.
func TestRepartitionApplyPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for inst := 0; inst < 6; inst++ {
		e := driftedEngine(t, rng)
		prev := -1
		for round := 0; round < 200; round++ {
			pl, err := e.PlanRepartition()
			if err != nil {
				t.Fatal(err)
			}
			if !pl.TargetFeasible {
				t.Fatal("resident multiset is feasible under sorted solve by construction")
			}
			if prev >= 0 && len(pl.Moves) > prev {
				t.Fatalf("drift grew from %d to %d moves", prev, len(pl.Moves))
			}
			prev = len(pl.Moves)
			if len(pl.Moves) == 0 {
				return
			}
			applied, err := e.ApplyRepartition(pl, 2)
			if err != nil {
				t.Fatal(err)
			}
			if applied > 2 {
				t.Fatalf("applied %d moves with maxMoves=2", applied)
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if applied == 0 {
				// No individually-feasible move this round: a bounded
				// greedy pass can legitimately stall (a swap would be
				// needed); the full apply must still land on target.
				if _, err := e.ApplyRepartition(pl, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRepartitionStalePlan: a plan computed before a mutation must be
// refused, not applied onto the changed multiset.
func TestRepartitionStalePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e := driftedEngine(t, rng)
	pl, err := e.PlanRepartition()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := e.Remove(0); err != nil || !ok {
		t.Fatalf("Remove: ok=%v err=%v", ok, err)
	}
	if _, err := e.ApplyRepartition(pl, 0); err == nil {
		t.Fatal("stale plan (wrong task count) must be rejected")
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestRepartitionInfeasibleTarget(t *testing.T) {
	pl := Plan{TargetFeasible: false}
	e := &Engine{}
	if _, err := e.ApplyRepartition(pl, 0); err == nil {
		t.Fatal("infeasible target must be rejected")
	}
}
