package dbf

import (
	"fmt"
	"math/rand"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/rational"
)

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		tk   Task
		ok   bool
	}{
		{"implicit", Task{WCET: 1, Deadline: 4, Period: 4}, true},
		{"constrained", Task{WCET: 1, Deadline: 2, Period: 4}, true},
		{"zero wcet", Task{WCET: 0, Deadline: 2, Period: 4}, false},
		{"deadline < wcet", Task{WCET: 3, Deadline: 2, Period: 4}, false},
		{"arbitrary deadline (D > P) rejected", Task{WCET: 1, Deadline: 6, Period: 4}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.tk.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate = %v, ok = %v", err, tc.ok)
			}
		})
	}
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set should fail")
	}
}

func TestDensityAndUtilization(t *testing.T) {
	tk := Task{WCET: 2, Deadline: 4, Period: 8}
	if tk.Utilization() != 0.25 || tk.Density() != 0.5 {
		t.Errorf("u=%v d=%v", tk.Utilization(), tk.Density())
	}
	s := Set{tk, tk}
	if s.TotalUtilization() != 0.5 || s.TotalDensity() != 1.0 {
		t.Errorf("U=%v Δ=%v", s.TotalUtilization(), s.TotalDensity())
	}
}

func TestDBFValues(t *testing.T) {
	// Task (C=2, D=4, P=8): dbf jumps by 2 at t = 4, 12, 20, …
	s := Set{{WCET: 2, Deadline: 4, Period: 8}}
	cases := []struct {
		t    int64
		want int64
	}{
		{0, 0}, {3, 0}, {4, 2}, {11, 2}, {12, 4}, {20, 6},
	}
	for _, tc := range cases {
		if got := s.DBF(tc.t); got != tc.want {
			t.Errorf("DBF(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestApproxDBFUpperBoundsDBF(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		s := make(Set, n)
		for i := range s {
			p := int64(4 + rng.Intn(40))
			d := int64(2 + rng.Intn(int(p-1)))
			c := int64(1 + rng.Intn(int(min64(d, p))))
			s[i] = Task{WCET: c, Deadline: d, Period: p}
		}
		if s.Validate() != nil {
			continue
		}
		for _, k := range []int{1, 2, 4} {
			for t64 := int64(0); t64 < 200; t64 += 3 {
				exact := float64(s.DBF(t64))
				approx := s.ApproxDBF(t64, k)
				if approx < exact-1e-9 {
					t.Fatalf("trial %d: ApproxDBF(%d, k=%d) = %v < DBF = %v for %v",
						trial, t64, k, approx, exact, s)
				}
			}
		}
	}
}

func TestFeasibleEDFImplicitMatchesUtilization(t *testing.T) {
	s := Set{
		{WCET: 1, Deadline: 2, Period: 2},
		{WCET: 1, Deadline: 3, Period: 3},
	}
	ok, err := FeasibleEDF(s, 1)
	if err != nil || !ok {
		t.Errorf("U = 5/6 implicit: %v (%v)", ok, err)
	}
	ok, err = FeasibleEDF(s, 0.8)
	if err != nil || ok {
		t.Errorf("U = 5/6 on speed 0.8: %v (%v), want infeasible", ok, err)
	}
}

func TestFeasibleEDFConstrainedTighter(t *testing.T) {
	// (C=2, D=2, P=4) twice: density 2, utilization 1. At t=2, demand 4 >
	// 2·1: infeasible on speed 1 even though U = 1.
	s := Set{
		{WCET: 2, Deadline: 2, Period: 4},
		{WCET: 2, Deadline: 2, Period: 4},
	}
	ok, err := FeasibleEDF(s, 1)
	if err != nil || ok {
		t.Errorf("constrained overload: %v (%v), want infeasible", ok, err)
	}
	ok, err = FeasibleEDF(s, 2)
	if err != nil || !ok {
		t.Errorf("speed 2: %v (%v), want feasible", ok, err)
	}
}

func TestFeasibleEDFValidation(t *testing.T) {
	s := Set{{WCET: 1, Deadline: 2, Period: 2}}
	if _, err := FeasibleEDF(Set{}, 1); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := FeasibleEDF(s, 0); err == nil {
		t.Error("zero speed should fail")
	}
	if _, err := ApproxFeasibleEDF(s, 0, 2); err == nil {
		t.Error("approx zero speed should fail")
	}
	if _, err := ApproxFeasibleEDF(Set{}, 1, 2); err == nil {
		t.Error("approx empty set should fail")
	}
}

// Approximate accept implies exact accept (the approximation is an upper
// bound on demand), and exact behaviour matches simulation.
func TestApproxSoundExactMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	decisive := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		s := make(Set, n)
		for i := range s {
			p := int64(2 + rng.Intn(12))
			d := int64(1 + rng.Intn(int(p)))
			c := int64(1 + rng.Intn(int(min64(d, p))))
			s[i] = Task{WCET: c, Deadline: d, Period: p}
		}
		if s.Validate() != nil {
			continue
		}
		exact, err := FeasibleEDF(s, 1)
		if err != nil {
			continue
		}
		for _, k := range []int{1, 2, 4} {
			approx, err := ApproxFeasibleEDF(s, 1, k)
			if err != nil {
				t.Fatal(err)
			}
			if approx && !exact {
				t.Fatalf("trial %d: approximate test (k=%d) accepted an infeasible set %v", trial, k, s)
			}
		}
		// Simulate one hyperperiod + max deadline.
		hp := int64(1)
		var maxD int64
		okHP := true
		for _, tk := range s {
			g := gcd(hp, tk.Period)
			hp = hp / g * tk.Period
			if hp > 10_000 {
				okHP = false
				break
			}
			if tk.Deadline > maxD {
				maxD = tk.Deadline
			}
		}
		if !okHP {
			continue
		}
		misses, _, err := SimulateEDF(s, rational.One(), hp+maxD)
		if err != nil {
			t.Fatal(err)
		}
		if exact != (misses == 0) {
			t.Fatalf("trial %d: analysis=%v but sim misses=%d for %v", trial, exact, misses, s)
		}
		decisive++
	}
	if decisive < 100 {
		t.Errorf("only %d decisive trials", decisive)
	}
}

func TestFirstFitConstrained(t *testing.T) {
	p := machine.New(1, 1)
	// Two high-density tasks that must be separated.
	s := Set{
		{Name: "a", WCET: 2, Deadline: 2, Period: 8},
		{Name: "b", WCET: 2, Deadline: 2, Period: 8},
		{Name: "c", WCET: 1, Deadline: 8, Period: 8},
	}
	ok, asg, err := FirstFit(s, p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("expected feasible, asg=%v", asg)
	}
	if asg[0] == asg[1] {
		t.Errorf("density-2 pair not separated: %v", asg)
	}
	// Infeasible: three density-1 tight tasks on two machines.
	s2 := Set{
		{WCET: 2, Deadline: 2, Period: 8},
		{WCET: 2, Deadline: 2, Period: 8},
		{WCET: 2, Deadline: 2, Period: 8},
	}
	ok, _, err = FirstFit(s2, p, 1, 0)
	if err != nil || ok {
		t.Errorf("three tight tasks on two machines: ok=%v (%v)", ok, err)
	}
	// …but augmentation α=2 packs two per machine (demand 4 ≤ 2·2 at t=2).
	ok, _, err = FirstFit(s2, p, 2, 0)
	if err != nil || !ok {
		t.Errorf("α=2: ok=%v (%v), want feasible", ok, err)
	}
}

// TestFirstFitResultFailureState checks the failure state FirstFitResult
// reports: the task no machine admits and every later one in density
// order unplaced, FailedTask the first of them, and loads summed in
// density order up to the failure.
func TestFirstFitResultFailureState(t *testing.T) {
	s := Set{
		{Name: "light", WCET: 1, Deadline: 10, Period: 10}, // density 0.1, placed last
		{Name: "d1", WCET: 3, Deadline: 3, Period: 10},     // density 1, ties broken by deadline
		{Name: "d2", WCET: 2, Deadline: 2, Period: 10},
		{Name: "half", WCET: 2, Deadline: 4, Period: 10}, // density 0.5: fits nowhere
	}
	res, err := FirstFitResult(s, machine.New(1), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.FailedTask != 1 || fmt.Sprint(res.Assignment) != "[-1 -1 0 -1]" {
		t.Fatalf("result %+v, want d2 placed, d1 failed, the rest unplaced", res)
	}
	if want := 0.2; res.Loads[0] != want {
		t.Fatalf("loads %v, want [%v]", res.Loads, want)
	}
	// Loads fold in density order, not input order: 0.3+0.2+0.1 is 0.6,
	// while 0.1+0.2+0.3 rounds to 0.6000000000000001.
	s = Set{{WCET: 1, Deadline: 10, Period: 10}, {WCET: 2, Deadline: 10, Period: 10}, {WCET: 3, Deadline: 10, Period: 10}}
	if res, err = FirstFitResult(s, machine.New(1), 1, 0); err != nil || !res.Feasible || res.Loads[0] != 0.6 {
		t.Fatalf("result %+v (%v), want feasible with load 0.6", res, err)
	}
	ok, as, err := FirstFit(s, machine.New(1), 1, 0)
	if !ok || err != nil || fmt.Sprint(as) != fmt.Sprint(res.Assignment) {
		t.Fatalf("FirstFit = %v %v %v, want FirstFitResult's verdict and assignment", ok, as, err)
	}
}

func TestFirstFitApproxNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		s := make(Set, n)
		for i := range s {
			p := int64(4 + rng.Intn(20))
			d := int64(2 + rng.Intn(int(p-1)))
			c := int64(1 + rng.Intn(int(min64(d, 6))))
			s[i] = Task{WCET: c, Deadline: d, Period: p}
		}
		if s.Validate() != nil {
			continue
		}
		p := machine.New(1, 2)
		okExact, _, err := FirstFit(s, p, 1, 0)
		if err != nil {
			continue
		}
		okApprox, _, err := FirstFit(s, p, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if okApprox && !okExact {
			t.Fatalf("trial %d: approximate admission accepted, exact rejected: %v", trial, s)
		}
	}
}

func TestFirstFitValidation(t *testing.T) {
	s := Set{{WCET: 1, Deadline: 2, Period: 2}}
	if _, _, err := FirstFit(Set{}, machine.New(1), 1, 0); err == nil {
		t.Error("empty set should fail")
	}
	if _, _, err := FirstFit(s, machine.Platform{}, 1, 0); err == nil {
		t.Error("empty platform should fail")
	}
	if _, _, err := FirstFit(s, machine.New(1), -1, 0); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestSimulateEDFValidation(t *testing.T) {
	s := Set{{WCET: 1, Deadline: 2, Period: 2}}
	if _, _, err := SimulateEDF(Set{}, rational.One(), 10); err == nil {
		t.Error("empty set should fail")
	}
	if _, _, err := SimulateEDF(s, rational.Zero(), 10); err == nil {
		t.Error("zero speed should fail")
	}
	if _, _, err := SimulateEDF(s, rational.One(), 0); err == nil {
		t.Error("zero horizon should fail")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkFeasibleEDF times the exact single-machine test on n
// constrained tasks with periods in [10, 999], deadlines 60–100% of the
// period and total utilization 0.8 on a unit-speed machine, where the
// La horizon spans many checkpoints.
func BenchmarkFeasibleEDF(b *testing.B) {
	for _, n := range []int{5, 20, 40} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			s := make(Set, n)
			for i := range s {
				p := int64(10 + rng.Intn(990))
				c := max(1, int64(0.8/float64(n)*float64(p)*(0.5+rng.Float64())))
				d := max(c, int64(float64(p)*(0.6+0.4*rng.Float64())))
				s[i] = Task{WCET: c, Deadline: d, Period: p}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FeasibleEDF(s, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
