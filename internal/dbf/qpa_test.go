package dbf

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanEDF is FeasibleEDF answered by the checkpoint scan alone: the
// reference QPA must agree with, verdict and error.
func scanEDF(s Set, speed float64) (bool, error) {
	horizon, ok, err := edfHorizon(s, speed)
	if horizon == 0 {
		return ok, err
	}
	return checkDemand(s, speed, horizon)
}

// sameAnswer fails unless FeasibleEDF and the scan agree on (s, speed).
func sameAnswer(t testing.TB, what string, s Set, speed float64) {
	t.Helper()
	got, gerr := FeasibleEDF(s, speed)
	want, werr := scanEDF(s, speed)
	if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: speed %v (%#x), set %v: FeasibleEDF (%v, %v), scan (%v, %v)",
			what, speed, math.Float64bits(speed), s, got, gerr, want, werr)
	}
}

// boundarySpeed returns the speed a set is tested at: mode 0–3 sit on
// the utilization boundary (U, the floats either side of it, and U
// under the comparisons' 1e-12 tolerance), any other mode lies frac of
// the way from U to the total density, where the demand test decides.
func boundarySpeed(s Set, mode uint8, frac float64) float64 {
	u := s.TotalUtilization()
	switch mode % 8 {
	case 0:
		return u
	case 1:
		return math.Nextafter(u, 0)
	case 2:
		return math.Nextafter(u, math.Inf(1))
	case 3:
		return u * (1 + 1e-12)
	}
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = 0.5
	}
	frac = math.Abs(math.Mod(frac, 1.25))
	return u + frac*(s.TotalDensity()-u)
}

// randQPASet draws n constrained tasks with periods uniform in [10, 999]
// or dyadic in 2^4–2^13, scaled to a total utilization near 1 so that
// most sets sit where only the demand test can decide them.
func randQPASet(rng *rand.Rand, n int) Set {
	dyadic := rng.Intn(2) == 0
	target := 0.3 + 0.8*rng.Float64()
	s := make(Set, n)
	for i := range s {
		p := int64(10 + rng.Intn(990))
		if dyadic {
			p = int64(1) << (4 + rng.Intn(10))
		}
		c := int64(target/float64(n)*float64(p)*(0.5+rng.Float64())) + 1
		c = min(c, p)
		s[i] = Task{WCET: c, Deadline: c + rng.Int63n(p-c+1), Period: p}
	}
	return s
}

// TestFeasibleEDFMatchesScan holds QPA to the scan on 100,000 random
// sets of 1–40 tasks, half of them at the utilization boundary speeds.
func TestFeasibleEDFMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sets := 100_000
	if testing.Short() {
		sets = 10_000
	}
	for i := 0; i < sets; i++ {
		n := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(40)
		}
		s := randQPASet(rng, n)
		mode := uint8(4)
		if rng.Intn(2) == 0 {
			mode = uint8(rng.Intn(4))
		}
		sameAnswer(t, fmt.Sprintf("set %d", i), s, boundarySpeed(s, mode, rng.Float64()))
	}
}

// TestLeastCapacity pins leastCapacity against its definition on both
// sides of 2^52, where it switches from the corrected estimate to the
// binary search.
func TestLeastCapacity(t *testing.T) {
	reaches := func(x int64, fd, speed float64) bool { return speed*float64(x)*(1+1e-12) >= fd }
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		speed := math.Ldexp(0.5+rng.Float64(), rng.Intn(8)-4)
		tt := int64(1) + rng.Int63n(int64(1)<<(1+rng.Intn(61)))
		capT := speed * float64(tt) * (1 + 1e-12)
		fd := math.Max(1, math.Floor(capT*rng.Float64()))
		if !reaches(tt, fd, speed) {
			continue
		}
		x := leastCapacity(fd, speed, tt)
		if x < 0 || x > tt || !reaches(x, fd, speed) || x > 0 && reaches(x-1, fd, speed) {
			t.Fatalf("leastCapacity(%v, %v, %d) = %d: not the least reaching time", fd, speed, tt, x)
		}
	}
}

// FuzzFeasibleEDF holds QPA to the scan on fuzzed sets: each 6-byte
// group of data is one task (16-bit period, WCET and deadline drawn
// inside it, so every task is constrained), mode and frac pick the
// speed (see boundarySpeed).
func FuzzFeasibleEDF(f *testing.F) {
	f.Add([]byte{10, 0, 3, 0, 5, 0, 20, 0, 4, 0, 9, 0}, uint8(0), 0.5)
	f.Add([]byte{16, 0, 2, 0, 1, 0, 64, 0, 30, 0, 2, 0, 0, 1, 9, 0, 80, 0}, uint8(1), 0.0)
	f.Add([]byte{99, 3, 77, 1, 200, 0, 13, 0, 1, 0, 2, 0}, uint8(5), 0.9)
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, frac float64) {
		var s Set
		for len(data) >= 6 && len(s) < 40 {
			p := int64(binary.LittleEndian.Uint16(data)) + 1
			c := int64(binary.LittleEndian.Uint16(data[2:]))%p + 1
			d := c + int64(binary.LittleEndian.Uint16(data[4:]))%(p-c+1)
			s = append(s, Task{WCET: c, Deadline: d, Period: p})
			data = data[6:]
		}
		if len(s) == 0 {
			return
		}
		sameAnswer(t, "fuzz", s, boundarySpeed(s, mode, frac))
	})
}
