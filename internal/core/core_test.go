package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/exact"
	"partfeas/internal/fractional"
	"partfeas/internal/machine"
	"partfeas/internal/sched"
	"partfeas/internal/task"
)

func mustSet(t testing.TB, us []float64) task.Set {
	t.Helper()
	s, err := task.FromUtilizations(us, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnumStrings(t *testing.T) {
	if EDF.String() != "EDF" || RMS.String() != "RMS" {
		t.Error("scheduler strings")
	}
	if PartitionedAdversary.String() != "partitioned" || MigratoryAdversary.String() != "migratory-LP" {
		t.Error("adversary strings")
	}
	for _, thm := range Theorems {
		if thm.String() == "" {
			t.Error("theorem string empty")
		}
	}
	if Scheduler(9).String() == "" || Adversary(9).String() == "" || Theorem(9).String() == "" {
		t.Error("unknown enum strings")
	}
}

func TestTheoremMetadata(t *testing.T) {
	cases := []struct {
		thm   Theorem
		sch   Scheduler
		adv   Adversary
		alpha float64
	}{
		{TheoremI1, EDF, PartitionedAdversary, 2.0},
		{TheoremI2, RMS, PartitionedAdversary, math.Sqrt2 + 1},
		{TheoremI3, EDF, MigratoryAdversary, 2.98},
		{TheoremI4, RMS, MigratoryAdversary, 3.34},
	}
	for _, tc := range cases {
		if tc.thm.Scheduler() != tc.sch {
			t.Errorf("%v scheduler = %v, want %v", tc.thm, tc.thm.Scheduler(), tc.sch)
		}
		if tc.thm.Adversary() != tc.adv {
			t.Errorf("%v adversary = %v, want %v", tc.thm, tc.thm.Adversary(), tc.adv)
		}
		if math.Abs(tc.thm.Alpha()-tc.alpha) > 1e-12 {
			t.Errorf("%v alpha = %v, want %v", tc.thm, tc.thm.Alpha(), tc.alpha)
		}
	}
	if !math.IsNaN(Theorem(9).Alpha()) {
		t.Error("unknown theorem alpha should be NaN")
	}
	if _, err := Scheduler(9).Admission(); err == nil {
		t.Error("unknown scheduler admission should error")
	}
}

func TestTestAcceptReject(t *testing.T) {
	ts := mustSet(t, []float64{0.5, 0.5})
	p := machine.New(1, 1)
	rep, err := Test(ts, p, EDF, 1)
	if err != nil || !rep.Accepted {
		t.Errorf("trivially feasible set rejected: %+v (%v)", rep, err)
	}
	ts2 := mustSet(t, []float64{0.9, 0.9, 0.9})
	rep, err = Test(ts2, p, EDF, 1)
	if err != nil || rep.Accepted {
		t.Errorf("overloaded set accepted: %+v (%v)", rep, err)
	}
	if rep.Partition.FailedTask == -1 {
		t.Error("failure report missing τ_n")
	}
	if _, err := TestTheorem(ts, p, Theorem(9)); err == nil {
		t.Error("unknown theorem should error")
	}
}

func TestTestTheoremRunsAtTheoremAlpha(t *testing.T) {
	ts := mustSet(t, []float64{0.5})
	p := machine.New(1)
	for _, thm := range Theorems {
		rep, err := TestTheorem(ts, p, thm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.Alpha-thm.Alpha()) > 1e-12 {
			t.Errorf("%v ran at α=%v, want %v", thm, rep.Alpha, thm.Alpha())
		}
		if rep.Scheduler != thm.Scheduler() {
			t.Errorf("%v ran %v", thm, rep.Scheduler)
		}
	}
}

// Theorem I.1 as an executable property: if the partitioned adversary is
// feasible at speeds σ·s (σ = σ_part exactly), the test accepts at α = 2
// on that platform.
func TestTheoremI1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*2
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		res, err := exact.MinScaling(ts, p, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Platform on which the partitioned adversary is exactly feasible.
		adv := p.Scaled(res.Sigma * (1 + 1e-9))
		rep, err := TestTheorem(ts, adv, TheoremI1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("trial %d: I.1 violated: σ_part=%v but FF-EDF rejects at 2σ (us=%v speeds=%v)",
				trial, res.Sigma, us, speeds)
		}
	}
}

// Theorem I.2: partitioned adversary feasible ⇒ FF-RMS accepts at
// α = 1/(√2−1).
func TestTheoremI2Property(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*2
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		res, err := exact.MinScaling(ts, p, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		adv := p.Scaled(res.Sigma * (1 + 1e-9))
		rep, err := TestTheorem(ts, adv, TheoremI2)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("trial %d: I.2 violated: σ_part=%v (us=%v speeds=%v)", trial, res.Sigma, us, speeds)
		}
	}
}

// Theorem I.3: LP adversary feasible ⇒ FF-EDF accepts at α = 2.98.
func TestTheoremI3Property(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		m := 1 + rng.Intn(8)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()*1.5
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*3
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		sigma, err := fractional.MinScaling(ts, p)
		if err != nil {
			t.Fatal(err)
		}
		adv := p.Scaled(sigma * (1 + 1e-9))
		rep, err := TestTheorem(ts, adv, TheoremI3)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("trial %d: I.3 violated: σ_LP=%v (us=%v speeds=%v)", trial, sigma, us, speeds)
		}
	}
}

// Theorem I.4: LP adversary feasible ⇒ FF-RMS accepts at α = 3.34.
func TestTheoremI4Property(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		m := 1 + rng.Intn(8)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()*1.5
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*3
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		sigma, err := fractional.MinScaling(ts, p)
		if err != nil {
			t.Fatal(err)
		}
		adv := p.Scaled(sigma * (1 + 1e-9))
		rep, err := TestTheorem(ts, adv, TheoremI4)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("trial %d: I.4 violated: σ_LP=%v (us=%v speeds=%v)", trial, sigma, us, speeds)
		}
	}
}

// Soundness of accept: the witness partition satisfies the scheduler's
// single-machine test on the augmented platform.
func TestAcceptWitnessSound(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(5)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*2
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		sch := Scheduler(rng.Intn(2))
		alpha := 1 + rng.Float64()*2.5
		rep, err := Test(ts, p, sch, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			continue
		}
		sets := rep.Partition.MachineSets(ts, m)
		for j, assigned := range sets {
			if len(assigned) == 0 {
				continue
			}
			speed := alpha * p[j].Speed
			switch sch {
			case EDF:
				if !sched.EDFFeasibleSet(assigned, speed*(1+1e-12)) {
					t.Fatalf("trial %d: EDF witness overloads machine %d", trial, j)
				}
			case RMS:
				if !sched.RMSFeasibleLLSet(assigned, speed*(1+1e-12)) {
					t.Fatalf("trial %d: RMS witness violates LL on machine %d", trial, j)
				}
			}
		}
	}
}

func TestMinAlpha(t *testing.T) {
	// Three 2/3 tasks on two unit machines: FF-EDF needs α = 4/3 exactly.
	ts := task.Set{
		{WCET: 2, Period: 3}, {WCET: 2, Period: 3}, {WCET: 2, Period: 3},
	}
	p := machine.New(1, 1)
	alpha, ok, err := MinAlpha(ts, p, EDF, 1, 4, 1e-9)
	if err != nil || !ok {
		t.Fatalf("MinAlpha: %v %v", ok, err)
	}
	if math.Abs(alpha-4.0/3) > 1e-6 {
		t.Errorf("α = %v, want 4/3", alpha)
	}
	// Already feasible at 1.
	ts2 := mustSet(t, []float64{0.25})
	alpha, ok, err = MinAlpha(ts2, p, EDF, 1, 4, 1e-9)
	if err != nil || !ok || alpha != 1 {
		t.Errorf("MinAlpha trivial = %v %v (%v), want 1", alpha, ok, err)
	}
	// Not feasible even at hi.
	ts3 := mustSet(t, []float64{3, 3, 3, 3})
	_, ok, err = MinAlpha(ts3, p, EDF, 1, 1.5, 1e-9)
	if err != nil || ok {
		t.Errorf("MinAlpha impossible = %v (%v), want !ok", ok, err)
	}
	if _, _, err := MinAlpha(ts, p, EDF, 2, 0.5, 1e-9); err == nil {
		t.Error("hi < lo should error")
	}
	if _, _, err := MinAlpha(ts, p, EDF, 0, 2, 1e-9); err == nil {
		t.Error("lo <= 0 should error")
	}
}

func TestConstantsValidate(t *testing.T) {
	if err := PaperConstantsEDF.Validate(); err != nil {
		t.Error(err)
	}
	if err := PaperConstantsRMS.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Constants{
		{Cs: 1, Cf: 2, Fw: 0.5, Ff: 0.5},
		{Cs: 2, Cf: 0.5, Fw: 0.5, Ff: 0.5},
		{Cs: 2, Cf: 2, Fw: -0.1, Ff: 0.5},
		{Cs: 2, Cf: 2, Fw: 0.5, Ff: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad constants %d accepted: %+v", i, c)
		}
	}
}

// E12 seed: the paper's constants make all proof inequalities hold at the
// claimed α and fail slightly below it — the claimed factors are tight for
// this analysis.
func TestPaperConstantsSupportClaimedAlphas(t *testing.T) {
	edf := PaperConstantsEDF.EDFInequalities(2.98)
	if !edf.AllHold() {
		t.Errorf("EDF inequalities at 2.98: %+v", edf)
	}
	if PaperConstantsEDF.EDFInequalities(2.97).AllHold() {
		t.Error("EDF inequalities unexpectedly hold at 2.97")
	}
	rms := PaperConstantsRMS.RMSInequalities(3.34)
	if !rms.AllHold() {
		t.Errorf("RMS inequalities at 3.34: %+v", rms)
	}
	if PaperConstantsRMS.RMSInequalities(3.32).AllHold() {
		t.Error("RMS inequalities unexpectedly hold at 3.32")
	}
	// The paper reports the fast-case slack ≈ 1.005 (EDF) and ≈ 1.004 (RMS).
	if edf.FastCase > 1.01 || rms.FastCase > 1.01 {
		t.Errorf("fast-case slack larger than the paper suggests: %v, %v", edf.FastCase, rms.FastCase)
	}
}

func TestMinAlphaForConstants(t *testing.T) {
	a, ok, err := MinAlphaForConstants(PaperConstantsEDF, EDF, 4, 1e-9)
	if err != nil || !ok {
		t.Fatalf("EDF: %v %v", ok, err)
	}
	if a > 2.98 || a < 2.95 {
		t.Errorf("EDF minimal α = %v, want ≈2.98", a)
	}
	a, ok, err = MinAlphaForConstants(PaperConstantsRMS, RMS, 4, 1e-9)
	if err != nil || !ok {
		t.Fatalf("RMS: %v %v", ok, err)
	}
	if a > 3.34 || a < 3.30 {
		t.Errorf("RMS minimal α = %v, want ≈3.34", a)
	}
	// A tol below the float spacing of the bracket still terminates, at
	// the same boundary a representable tol brackets.
	tiny, ok, err := MinAlphaForConstants(PaperConstantsEDF, EDF, 4, 1e-300)
	if err != nil || !ok {
		t.Fatalf("EDF tol=1e-300: %v %v", ok, err)
	}
	if coarse, _, _ := MinAlphaForConstants(PaperConstantsEDF, EDF, 4, 1e-9); !(tiny <= coarse && coarse-tiny <= 1e-9) {
		t.Errorf("tol=1e-300 gives %v, not within 1e-9 below %v", tiny, coarse)
	}
	// Constants that never work: f_f = 0 kills the slow-case split.
	_, ok, err = MinAlphaForConstants(Constants{Cs: 2, Cf: 2, Fw: 0.5, Ff: 0}, EDF, 100, 1e-9)
	if err != nil || ok {
		t.Errorf("degenerate constants: ok=%v err=%v", ok, err)
	}
	if _, _, err := MinAlphaForConstants(Constants{}, EDF, 4, 1e-9); err == nil {
		t.Error("invalid constants should error")
	}
	if _, _, err := MinAlphaForConstants(PaperConstantsEDF, Scheduler(9), 4, 1e-6); err == nil {
		t.Error("unknown scheduler should error")
	}
}

func TestInequalityValuesHelpers(t *testing.T) {
	v := InequalityValues{FastCase: 1.2, SlowCaseSplit: 1.1, SlowCaseMedium: 0.9}
	if v.AllHold() {
		t.Error("AllHold with one below 1")
	}
	if v.Min() != 0.9 {
		t.Errorf("Min = %v", v.Min())
	}
	if _, err := PaperConstantsEDF.Inequalities(EDF, 3); err != nil {
		t.Error(err)
	}
	if _, err := PaperConstantsEDF.Inequalities(Scheduler(9), 3); err == nil {
		t.Error("unknown scheduler")
	}
}

func BenchmarkTestTheoremI1(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	us := make([]float64, 64)
	for i := range us {
		us[i] = rng.Float64()
	}
	ts, err := task.FromUtilizations(us, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	speeds := make([]float64, 8)
	for j := range speeds {
		speeds[j] = 0.5 + rng.Float64()*4
	}
	p := machine.New(speeds...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TestTheorem(ts, p, TheoremI1); err != nil {
			b.Fatal(err)
		}
	}
}

// Scale invariance: augmenting by α on platform p decides identically to
// augmenting by 1 on p scaled by α — the identity the ratio measurements
// and theorem checks rely on.
func TestQuickScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		us := make([]float64, n)
		for i := range us {
			us[i] = 0.05 + rng.Float64()
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.25 + rng.Float64()*2
		}
		ts := mustSet(t, us)
		p := machine.New(speeds...)
		alpha := 0.5 + rng.Float64()*2.5
		sch := Scheduler(rng.Intn(2))
		a, err := Test(ts, p, sch, alpha)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Test(ts, p.Scaled(alpha), sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Accepted != b.Accepted {
			t.Fatalf("trial %d: Test(p, %v)=%v but Test(p·%v, 1)=%v", trial, alpha, a.Accepted, alpha, b.Accepted)
		}
	}
}

// TestTesterMatchesOneShot holds the reusable Tester to bit-identical
// Reports against the one-shot Test across schedulers and augmentations,
// interleaved so scratch reuse cannot leak state between queries.
func TestTesterMatchesOneShot(t *testing.T) {
	ts := task.Set{
		{WCET: 2, Period: 3}, {WCET: 3, Period: 7}, {WCET: 1, Period: 2},
		{WCET: 5, Period: 11}, {WCET: 2, Period: 5},
	}
	p := machine.New(0.5, 1, 2)
	for _, sch := range []Scheduler{EDF, RMS} {
		tester, err := NewTester(ts, p, sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{2, 0.8, 1, 3.34, 1.1, 2} {
			got, err := tester.Test(alpha)
			if err != nil {
				t.Fatal(err)
			}
			got.Partition = got.Partition.Clone()
			want, err := Test(ts, p, sch, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v α=%v: tester %+v != one-shot %+v", sch, alpha, got, want)
			}
		}
	}
}

// TestTesterMinAlphaMatchesPackageLevel pins the Tester bisection to the
// package-level MinAlpha on the same bracket.
func TestTesterMinAlphaMatchesPackageLevel(t *testing.T) {
	ts := task.Set{
		{WCET: 2, Period: 3}, {WCET: 2, Period: 3}, {WCET: 2, Period: 3},
	}
	p := machine.New(1, 1)
	tester, err := NewTester(ts, p, EDF)
	if err != nil {
		t.Fatal(err)
	}
	got, gotOK, err := tester.MinAlpha(1, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK, err := MinAlpha(ts, p, EDF, 1, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotOK != wantOK {
		t.Errorf("tester MinAlpha = (%v, %v), package = (%v, %v)", got, gotOK, want, wantOK)
	}
	if _, _, err := tester.MinAlpha(2, 0.5, 1e-9); err == nil {
		t.Error("hi < lo should error")
	}
}

// TestTesterRepeatQueryAllocationFree asserts the bisection contract:
// repeat Test queries on one Tester do not allocate.
func TestTesterRepeatQueryAllocationFree(t *testing.T) {
	ts := task.Set{
		{WCET: 2, Period: 3}, {WCET: 3, Period: 7}, {WCET: 1, Period: 2},
		{WCET: 5, Period: 11}, {WCET: 2, Period: 5},
	}
	p := machine.New(0.5, 1, 2)
	for _, sch := range []Scheduler{EDF, RMS} {
		tester, err := NewTester(ts, p, sch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tester.Test(1); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			for _, alpha := range []float64{0.9, 1.4, 2.2, 3.1} {
				if _, err := tester.Test(alpha); err != nil {
					t.Fatal(err)
				}
			}
		})
		if avg != 0 {
			t.Errorf("%v: %v allocs per 4 queries, want 0", sch, avg)
		}
	}
}
