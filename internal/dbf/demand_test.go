package dbf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"partfeas/internal/machine"
)

func randConstrained(rng *rand.Rand, maxP int64) Task {
	p := 2 + rng.Int63n(maxP-1)
	c := 1 + rng.Int63n(p)
	d := c + rng.Int63n(p-c+1)
	return Task{WCET: c, Deadline: d, Period: p}
}

// TestApproxDBFOneSidedErrorFuzz is the differential fuzz of the k-point
// linearization against the exact demand bound function: across random
// constrained sets, times and depths, ApproxDBF must over-approximate
// (never under — that is what makes approximate-accept sound) and stay
// within the Albers–Slomka (k+1)/k factor of the exact value, and the
// exact DBF must be monotone in t.
func TestApproxDBFOneSidedErrorFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(8)
		s := make(Set, n)
		for i := range s {
			s[i] = randConstrained(rng, 1000)
		}
		k := 1 + rng.Intn(8)
		factor := float64(k+1) / float64(k)
		var maxT int64
		for _, tk := range s {
			if end := tk.Deadline + int64(k+2)*tk.Period; end > maxT {
				maxT = end
			}
		}
		prev := int64(0)
		for _, tt := range sampleTimes(rng, s, k, maxT) {
			exact := s.DBF(tt)
			approx := s.ApproxDBF(tt, k)
			if exact == 0 {
				if approx != 0 {
					t.Fatalf("trial %d t=%d: exact 0 but approx %v", trial, tt, approx)
				}
				continue
			}
			fe := float64(exact)
			if approx < fe*(1-1e-9) {
				t.Fatalf("trial %d t=%d k=%d: approx %v under-approximates exact %d", trial, tt, k, approx, exact)
			}
			if approx > fe*factor*(1+1e-9) {
				t.Fatalf("trial %d t=%d k=%d: approx %v exceeds (k+1)/k bound %v of exact %d", trial, tt, k, approx, fe*factor, exact)
			}
			if exact < prev {
				t.Fatalf("trial %d t=%d: DBF not monotone (%d after %d)", trial, tt, exact, prev)
			}
			prev = exact
		}
	}
}

// sampleTimes yields an ascending mix of exact deadline checkpoints,
// their neighbors, and random times up to maxT.
func sampleTimes(rng *rand.Rand, s Set, k int, maxT int64) []int64 {
	var ts []int64
	for _, tk := range s {
		tt := tk.Deadline
		for step := 0; step < k+2; step++ {
			ts = append(ts, tt-1, tt, tt+1)
			tt += tk.Period
		}
	}
	for i := 0; i < 16; i++ {
		ts = append(ts, 1+rng.Int63n(maxT))
	}
	out := ts[:0]
	for _, tt := range ts {
		if tt > 0 {
			out = append(out, tt)
		}
	}
	sortInt64(out)
	return out
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestDBFSaturatesOnOverflow pins the guarded-multiply clamp: a demand
// that exceeds int64 range reports MaxInt64 instead of wrapping.
func TestDBFSaturatesOnOverflow(t *testing.T) {
	tk := Task{WCET: 1 << 40, Deadline: 1 << 40, Period: 1 << 40}
	s := Set{tk, tk} // each task's demand ≈ t; the sum exceeds int64 range
	if got := s.DBF(math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("DBF = %d, want saturation at MaxInt64", got)
	}
	if _, ok := s.dbfChecked(math.MaxInt64); ok {
		t.Fatal("dbfChecked reported an overflowed demand as exact")
	}
	if got := s.DBF(1 << 41); got != 1<<42 {
		t.Fatalf("in-range DBF = %d, want %d", got, int64(1)<<42)
	}
}

// TestCheckDemandOverflow drives the checkpoint scan into int64 demand
// overflow and expects the typed error, not a verdict.
func TestCheckDemandOverflow(t *testing.T) {
	tk := Task{WCET: 1 << 50, Deadline: 1 << 50, Period: 1 << 50}
	s := Set{tk, tk} // accumulated demand crosses int64 range within ~2^13 checkpoints
	if _, err := checkDemand(s, 1e30, math.MaxInt64-1); !errors.Is(err, ErrDemandOverflow) {
		t.Fatalf("err = %v, want ErrDemandOverflow", err)
	}
}

// TestFeasibleEDFHyperperiodOverflow: utilization exactly at the speed
// over near-coprime ~2^39 periods forces the hyperperiod fallback, whose
// lcm overflows the guarded multiply into ErrHorizonTooLarge.
func TestFeasibleEDFHyperperiodOverflow(t *testing.T) {
	p1 := int64(1)<<39 + 1
	p2 := int64(1)<<39 - 1
	t1 := Task{WCET: 1 << 30, Deadline: (p1 + 1) / 2, Period: p1}
	t2 := Task{WCET: 1 << 30, Deadline: (p2 + 1) / 2, Period: p2}
	speed := t1.Utilization() + t2.Utilization()
	if _, err := FeasibleEDF(Set{t1, t2}, speed); !errors.Is(err, ErrHorizonTooLarge) {
		t.Fatalf("err = %v, want ErrHorizonTooLarge", err)
	}
}

// TestCheckpointsNeverWrap pins the checkpoint arithmetic at the top of
// int64 range: a next deadline D + j·P past MaxInt64 must neither wrap
// into a negative checkpoint (a spurious reject) nor be skipped without
// proof that it passes.
func TestCheckpointsNeverWrap(t *testing.T) {
	huge := Task{WCET: 1, Deadline: 1 << 61, Period: 1 << 61}
	// The linear bound fails at 2^63 although every in-range checkpoint
	// passes, so the approximate test cannot decide this set.
	undecided := Set{
		{WCET: 259585244101544188, Deadline: 264526820096773102, Period: 474002701675684921},
		{WCET: 2763628529117733046, Deadline: 4208644980604444440, Period: 6109713360981206363},
	}
	cases := []struct {
		name    string
		run     func() (bool, error)
		want    bool
		wantErr error
	}{
		{"exact/stream ends past int64", func() (bool, error) {
			return FeasibleEDF(Set{{WCET: 1, Deadline: 10, Period: math.MaxInt64}}, 1)
		}, true, nil},
		{"approx/k=8 points past int64", func() (bool, error) {
			return ApproxFeasibleEDF(Set{huge}, 1, 8)
		}, true, nil},
		{"approx/first-fit k=8", func() (bool, error) {
			ok, _, err := FirstFit(Set{huge}, machine.New(1), 1, 8)
			return ok, err
		}, true, nil},
		{"approx/unprovable skip", func() (bool, error) {
			return ApproxFeasibleEDF(undecided, undecided.TotalUtilization(), 3)
		}, false, ErrHorizonTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if !errors.Is(err, tc.wantErr) || got != tc.want {
				t.Fatalf("got (%v, %v), want (%v, %v)", got, err, tc.want, tc.wantErr)
			}
		})
	}
}
