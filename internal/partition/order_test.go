package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"partfeas/internal/task"
)

// ratLessUtilDesc is the paper's task order with the utilizations reduced
// to exact rationals and compared by rational.Rat.Cmp — the reference the
// cross-multiplying TaskLessUtilDesc must agree with on every pair.
func ratLessUtilDesc(ts task.Set, a, b int) bool {
	if c := ts[a].UtilizationRat().Cmp(ts[b].UtilizationRat()); c != 0 {
		return c > 0
	}
	if ts[a].Period != ts[b].Period {
		return ts[a].Period < ts[b].Period
	}
	if ts[a].Name != ts[b].Name {
		return ts[a].Name < ts[b].Name
	}
	return a < b
}

// randParam draws a positive int64 from a mix of ranges: small values,
// the full int64 range, and values within a few thousand of MaxInt64,
// where any product overflows 64 bits.
func randParam(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 1 + rng.Int63n(1000)
	case 1:
		return 1 + rng.Int63n(1_000_000_000)
	case 2:
		return 1 + rng.Int63n(math.MaxInt64)
	default:
		return math.MaxInt64 - rng.Int63n(4096)
	}
}

// TestTaskLessUtilDescMatchesRat holds the 128-bit comparator to the
// reduced-rational reference on a million random pairs, including WCETs
// and periods near MaxInt64 and equal utilizations written as different
// multiples of one fraction (which only the period/name/index tie-breaks
// can separate).
func TestTaskLessUtilDescMatchesRat(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	names := []string{"", "a", "b"}
	check := func(x, y task.Task) {
		t.Helper()
		ts := task.Set{x, y}
		for _, ab := range [2][2]int{{0, 1}, {1, 0}} {
			if got, want := TaskLessUtilDesc(ts, ab[0], ab[1]), ratLessUtilDesc(ts, ab[0], ab[1]); got != want {
				t.Fatalf("less(%v, %v) = %v, want %v", ts[ab[0]], ts[ab[1]], got, want)
			}
		}
	}
	const pairs = 1_000_000
	for i := 0; i < pairs; i++ {
		x := task.Task{Name: names[rng.Intn(3)], WCET: randParam(rng), Period: randParam(rng)}
		y := task.Task{Name: names[rng.Intn(3)], WCET: randParam(rng), Period: randParam(rng)}
		if i%4 == 0 {
			// Equal utilization: y = k·x for the largest k that fits.
			c, p := 1+rng.Int63n(1000), 1+rng.Int63n(1000)
			k := 1 + rng.Int63n(math.MaxInt64/max(c, p))
			x = task.Task{Name: x.Name, WCET: c, Period: p}
			y = task.Task{Name: y.Name, WCET: k * c, Period: k * p}
		}
		check(x, y)
	}
	// Fixed extremes: both products at and around 2^126.
	big := int64(math.MaxInt64)
	for _, pr := range [][2]task.Task{
		{{WCET: big, Period: big}, {WCET: 1, Period: 1}},
		{{WCET: big, Period: big - 1}, {WCET: big - 1, Period: big - 2}},
		{{WCET: big - 1, Period: big}, {WCET: big - 2, Period: big - 1}},
		{{WCET: big, Period: 1}, {WCET: big - 1, Period: 1}},
		{{WCET: 1, Period: big}, {WCET: 1, Period: big - 1}},
	} {
		check(pr[0], pr[1])
	}
}

// checkTaskOrder asserts that orderTasks puts ts in the paper's order
// (utilization descending) as the names in want.
func checkTaskOrder(t *testing.T, ts task.Set, want []string) {
	t.Helper()
	idx, err := orderTasks(ts, TasksByUtilizationDesc)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range idx {
		if ts[j].Name != want[i] {
			t.Errorf("position %d = %s, want %s", i, ts[j].Name, want[i])
		}
	}
}

func TestTaskOrderUtilizationDesc(t *testing.T) {
	checkTaskOrder(t, task.Set{
		{Name: "low", WCET: 1, Period: 10},
		{Name: "high", WCET: 9, Period: 10},
		{Name: "mid", WCET: 5, Period: 10},
	}, []string{"high", "mid", "low"})
}

// 1/3 vs 333333333/10^9: floats call these nearly equal; the exact
// comparison puts 1/3 (larger) first.
func TestTaskOrderExactNoFloatTies(t *testing.T) {
	checkTaskOrder(t, task.Set{
		{Name: "approx", WCET: 333333333, Period: 1000000000},
		{Name: "exact", WCET: 1, Period: 3},
	}, []string{"exact", "approx"})
}

// Equal utilizations 2/4 and 1/2: the smaller period goes first.
func TestTaskOrderPeriodTieBreak(t *testing.T) {
	checkTaskOrder(t, task.Set{
		{Name: "b", WCET: 2, Period: 4},
		{Name: "a", WCET: 1, Period: 2},
	}, []string{"a", "b"})
}

// Property: orderTasks returns a permutation sorted by the reference
// order, and the ascending order is its exact reverse.
func TestQuickTaskOrderProperties(t *testing.T) {
	f := func(raw []struct {
		C uint16
		P uint16
	}) bool {
		ts := make(task.Set, len(raw))
		for i, r := range raw {
			ts[i] = task.Task{WCET: int64(r.C) + 1, Period: int64(r.P) + 1}
		}
		desc, err := orderTasks(ts, TasksByUtilizationDesc)
		if err != nil {
			return false
		}
		asc, err := orderTasks(ts, TasksByUtilizationAsc)
		if err != nil || len(desc) != len(ts) || len(asc) != len(ts) {
			return false
		}
		seen := make([]bool, len(ts))
		for i, j := range desc {
			if seen[j] || asc[len(asc)-1-i] != j {
				return false
			}
			seen[j] = true
			if i > 0 && !ratLessUtilDesc(ts, desc[i-1], j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
