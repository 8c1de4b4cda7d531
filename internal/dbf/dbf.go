// Package dbf extends the feasibility machinery to constrained-deadline
// sporadic tasks (C ≤ D ≤ P), the generalization the paper's related
// work ([4], [7] — Baruah & Fisher; Chen & Chakraborty) studies.
//
// For implicit deadlines the EDF test collapses to Σw ≤ s; with D < P it
// becomes processor-demand analysis: EDF schedules the set on a speed-s
// machine iff the demand bound function
//
//	dbf(t) = Σ_i max(0, ⌊(t − D_i)/P_i⌋ + 1)·C_i
//
// never exceeds s·t. The test decides every deadline checkpoint up to a
// bounded horizon, by quick processor-demand analysis (QPA, Zhang &
// Burns) wherever a plain scan of those checkpoints would answer, and by
// that scan elsewhere; ApproxFeasibleEDF uses the k-step approximate dbf
// (exact for the first k jobs of each task, linear beyond), which is the
// classic (1+1/k)-approximate test.
//
// FirstFit runs the paper's partitioning algorithm with DBF admission —
// the natural constrained-deadline extension of the §III algorithm.
package dbf

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
)

// Task is a constrained-deadline sporadic task: jobs need C time units
// (at unit speed), are released at least P apart, and must finish within
// D of release, with C ≤ D ≤ P.
type Task struct {
	Name     string
	WCET     int64
	Deadline int64
	Period   int64
}

// Validate reports whether the task is well-formed and constrained.
func (t Task) Validate() error {
	if t.WCET <= 0 {
		return fmt.Errorf("dbf: task %q: WCET %d must be positive", t.Name, t.WCET)
	}
	if t.Deadline < t.WCET {
		return fmt.Errorf("dbf: task %q: deadline %d < WCET %d", t.Name, t.Deadline, t.WCET)
	}
	if t.Period < t.Deadline {
		return fmt.Errorf("dbf: task %q: period %d < deadline %d (constrained model)", t.Name, t.Period, t.Deadline)
	}
	return nil
}

// Utilization returns C/P.
func (t Task) Utilization() float64 { return float64(t.WCET) / float64(t.Period) }

// Density returns C/D, the utilization's constrained-deadline analogue.
func (t Task) Density() float64 { return float64(t.WCET) / float64(t.Deadline) }

// Set is a collection of constrained-deadline tasks.
type Set []Task

// Validate checks every task.
func (s Set) Validate() error {
	if len(s) == 0 {
		return errors.New("dbf: empty task set")
	}
	for i, t := range s {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("dbf: task %d: %w", i, err)
		}
	}
	return nil
}

// TotalUtilization returns Σ C_i/P_i.
func (s Set) TotalUtilization() float64 {
	u := 0.0
	for _, t := range s {
		u += t.Utilization()
	}
	return u
}

// TotalDensity returns Σ C_i/D_i.
func (s Set) TotalDensity() float64 {
	d := 0.0
	for _, t := range s {
		d += t.Density()
	}
	return d
}

// DBF returns the demand bound function at time t: the maximal work that
// can both be released and be due within any window of length t. Demand
// beyond int64 range saturates at math.MaxInt64 rather than wrapping, so
// the result stays monotone in t; callers that must distinguish genuine
// demand from saturation use dbfChecked.
func (s Set) DBF(t int64) int64 {
	d, ok := s.dbfChecked(t)
	if !ok {
		return math.MaxInt64
	}
	return d
}

// dbfChecked is DBF with overflow detection: ok is false when the exact
// demand does not fit in int64 (jobs·C or the running sum overflows).
func (s Set) dbfChecked(t int64) (demand int64, ok bool) {
	for _, tk := range s {
		if t < tk.Deadline {
			continue
		}
		jobs := (t-tk.Deadline)/tk.Period + 1
		if jobs > math.MaxInt64/tk.WCET {
			return 0, false
		}
		d := jobs * tk.WCET
		if demand > math.MaxInt64-d {
			return 0, false
		}
		demand += d
	}
	return demand, true
}

// ApproxDBF returns the k-step approximate demand bound: exact for each
// task's first k jobs, then the linear upper bound C + w·(t − D). It
// upper-bounds DBF for all t, so acceptance under ApproxDBF implies
// acceptance under DBF.
func (s Set) ApproxDBF(t int64, k int) float64 {
	if k < 1 {
		k = 1
	}
	demand := 0.0
	for _, tk := range s {
		if t < tk.Deadline {
			continue
		}
		// t lies before the switch point D + (k−1)·P iff t − D < (k−1)·P;
		// the product is taken in 128 bits so a switch point past int64
		// range never wraps.
		hi, lo := bits.Mul64(uint64(k-1), uint64(tk.Period))
		if hi != 0 || uint64(t-tk.Deadline) < lo {
			jobs := (t-tk.Deadline)/tk.Period + 1
			demand += float64(jobs * tk.WCET)
		} else {
			demand += float64(tk.WCET) + tk.Utilization()*float64(t-tk.Deadline)
		}
	}
	return demand
}

// maxCheckpoints bounds the number of deadline checkpoints FeasibleEDF
// will enumerate before giving up.
const maxCheckpoints = 5_000_000

// ErrHorizonTooLarge is returned when the analysis horizon needs more
// checkpoints than the budget allows (utilization too close to capacity
// with wildly incommensurate periods).
var ErrHorizonTooLarge = errors.New("dbf: analysis horizon too large")

// ErrDemandOverflow is returned when the exact demand at a checkpoint
// exceeds int64 range, so the test cannot answer without a wrong value.
var ErrDemandOverflow = errors.New("dbf: demand exceeds int64 range")

// FeasibleEDF decides exactly whether EDF schedules the set on one
// machine of the given speed, via processor-demand analysis over all
// deadline checkpoints up to the La bound
//
//	L = max_i(D_i, (Σ_i (P_i − D_i)·w_i) / (s − U)).
//
// Total utilization above the speed is immediately infeasible; exactly
// at the speed, the implicit-deadline subcase (D = P for all tasks) is
// feasible and everything else falls back to checking up to the maximum
// deadline-adjusted hyperperiod if affordable.
//
// The verdict and error are always those of checkDemand's ascending scan
// over the horizon. Where that scan provably answers without an error
// (scanAnswers), QPA reaches the same verdict from a handful of demand
// evaluations instead.
func FeasibleEDF(s Set, speed float64) (bool, error) {
	horizon, ok, err := edfHorizon(s, speed)
	switch {
	case horizon == 0:
		return ok, err
	case scanAnswers(s, horizon):
		return qpa(s, speed, horizon), nil
	}
	return checkDemand(s, speed, horizon)
}

// edfHorizon validates the set and the speed and returns the checkpoint
// horizon FeasibleEDF decides over, or horizon 0 with the answer when
// no checkpoint needs checking.
func edfHorizon(s Set, speed float64) (horizon int64, ok bool, err error) {
	if err := s.Validate(); err != nil {
		return 0, false, err
	}
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return 0, false, fmt.Errorf("dbf: speed %v must be positive and finite", speed)
	}
	u := s.TotalUtilization()
	if u > speed*(1+1e-12) {
		return 0, false, nil
	}
	implicit := true
	var maxD int64
	for _, t := range s {
		if t.Deadline != t.Period {
			implicit = false
		}
		if t.Deadline > maxD {
			maxD = t.Deadline
		}
	}
	if implicit {
		return 0, u <= speed*(1+1e-12), nil
	}
	if u < speed*(1-1e-9) {
		num := 0.0
		for _, t := range s {
			num += float64(t.Period-t.Deadline) * t.Utilization()
		}
		la := num / (speed - u)
		// Guard the float→int64 conversion: for co-prime large periods at
		// utilizations close to the speed, la can exceed int64 range, and
		// int64(huge float) is implementation-defined garbage. Same guarded
		// bound as the hyperperiod branch below.
		if la >= float64(1<<62) {
			return 0, false, ErrHorizonTooLarge
		}
		horizon = int64(math.Ceil(la))
		if horizon < maxD {
			horizon = maxD
		}
	} else {
		// U == speed: fall back to one hyperperiod + max deadline.
		hp := int64(1)
		for _, t := range s {
			g := gcd(hp, t.Period)
			if q := hp / g; t.Period > (1<<62)/q {
				return 0, false, ErrHorizonTooLarge
			}
			hp = hp / g * t.Period
		}
		if hp > (1<<62)-maxD {
			return 0, false, ErrHorizonTooLarge
		}
		horizon = hp + maxD
	}
	return horizon, false, nil
}

// scanAnswers reports whether checkDemand(s, ·, horizon) is certain to
// return a verdict rather than an error: the deadlines up to the horizon
// number at most maxCheckpoints, counted per task (so coinciding
// deadlines count more than once), and the demand at the horizon fits
// int64, so the demand at every earlier checkpoint does too. Its answer
// is then exactly whether some checkpoint ≤ horizon violates.
func scanAnswers(s Set, horizon int64) bool {
	var n int64
	for _, t := range s {
		if t.Deadline <= horizon {
			if n += (horizon-t.Deadline)/t.Period + 1; n > maxCheckpoints {
				return false
			}
		}
	}
	_, ok := s.dbfChecked(horizon)
	return ok
}

// qpa is quick processor-demand analysis (Zhang & Burns, IEEE TC 2009)
// over the checkpoints up to a horizon on which scanAnswers holds, with
// checkDemand's comparison. It walks the checkpoints downwards: when a
// checkpoint t passes, every checkpoint in [x, t] passes too, where x is
// the least time whose capacity reaches dbf(t) — dbf and the capacity
// are both non-decreasing — so the walk continues from the last
// checkpoint before x.
func qpa(s Set, speed float64, horizon int64) bool {
	for t := lastDeadline(s, horizon); t > 0; {
		var d int64 // dbf(t) ≤ dbf(horizon), which fits int64
		for _, tk := range s {
			if t >= tk.Deadline {
				d += ((t-tk.Deadline)/tk.Period + 1) * tk.WCET
			}
		}
		fd := float64(d)
		if fd > speed*float64(t)*(1+1e-12) {
			return false
		}
		t = lastDeadline(s, leastCapacity(fd, speed, t)-1)
	}
	return true
}

// lastDeadline returns the latest absolute deadline D_i + j·P_i ≤ v, or
// 0 when every first deadline lies past v.
func lastDeadline(s Set, v int64) int64 {
	var last int64
	for _, t := range s {
		if t.Deadline <= v {
			last = max(last, v-(v-t.Deadline)%t.Period)
		}
	}
	return last
}

// leastCapacity returns the least x ≥ 0 whose capacity, evaluated
// exactly as checkDemand evaluates it, reaches fd, given that t's does.
// Below 2^52 the quotient estimate is within a few units of x, so a
// short walk corrects it; above, where float64(x) is no longer exact for
// every x, a binary search over [0, t] finds it.
func leastCapacity(fd, speed float64, t int64) int64 {
	reaches := func(x int64) bool { return speed*float64(x)*(1+1e-12) >= fd }
	x := t
	if g := math.Ceil(fd / (speed * (1 + 1e-12))); g < float64(t) {
		x = int64(g)
	}
	if x < 1<<52 {
		for x < t && !reaches(x) {
			x++
		}
		for x > 0 && reaches(x-1) {
			x--
		}
		return x
	}
	lo, hi := int64(0), t // reaches(hi); fd ≥ 1, so never reaches(0)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// checkDemand enumerates absolute deadlines t ≤ horizon and verifies
// dbf(t) ≤ speed·t at each.
func checkDemand(s Set, speed float64, horizon int64) (bool, error) {
	// Merge the per-task deadline streams D_i, D_i+P_i, … with a simple
	// next-checkpoint scan (heap-free; n is small).
	next := make([]int64, len(s))
	for i, t := range s {
		next[i] = t.Deadline
	}
	checked := 0
	for {
		// Earliest unchecked checkpoint.
		t := int64(math.MaxInt64)
		for i := range next {
			if next[i] < t {
				t = next[i]
			}
		}
		if t > horizon || t == math.MaxInt64 {
			return true, nil
		}
		d, ok := s.dbfChecked(t)
		if !ok {
			return false, ErrDemandOverflow
		}
		if float64(d) > speed*float64(t)*(1+1e-12) {
			return false, nil
		}
		for i, tk := range s {
			if next[i] != t {
				continue
			}
			if next[i] > math.MaxInt64-tk.Period {
				// The next deadline lies past int64 range, so past the
				// horizon: this task's stream ends.
				next[i] = math.MaxInt64
			} else {
				next[i] += tk.Period
			}
		}
		checked++
		if checked > maxCheckpoints {
			return false, ErrHorizonTooLarge
		}
	}
}

// horizonSafeBound keeps every quantity the safety argument multiplies
// comfortably inside int64/float64 range.
const horizonSafeBound = float64(int64(1) << 61)

// HorizonSafe reports whether FeasibleEDF(s, speed) is guaranteed to
// return a verdict — no ErrHorizonTooLarge, no ErrDemandOverflow — so a
// sufficient accept established by cheaper means is conclusive against
// it. The online engine's density tier relies on it: Σδ ≤ s accepts
// (dbf(t) ≤ Σδ·t for constrained tasks, since ⌊(t−D)/P⌋+1 ≤ t/D when
// P ≥ D), but only where the exact test would answer rather than fail.
// The caller passes conservative *upper bounds* on the set's total
// utilization, total density, Σ1/P_i and Σ(P_i−D_i)·w_i (inflate
// incrementally folded sums by a relative 1e-9 to dominate the fresh
// summation FeasibleEDF performs), plus the exact max deadline and task
// count. The conditions are:
//
//   - uUB ≤ s·(1−1e-6): the La branch is taken (never the hyperperiod
//     fallback) and its denominator s−u is well away from zero;
//   - horizon = max(La, maxD) < 2^61: the float→int64 conversion and all
//     demand products stay in range;
//   - n + horizon·Σ1/P < maxCheckpoints/2: checkDemand finishes within
//     its enumeration budget;
//   - densUB·horizon < 2^61: dbf(t) ≤ Σδ·t fits in int64 at every
//     enumerated checkpoint, so dbfChecked cannot overflow before the
//     first violation (if any) is reached.
func HorizonSafe(speed, uUB, densUB, invPUB, numUB float64, maxD int64, n int) bool {
	if !(uUB <= speed*(1-1e-6)) {
		return false
	}
	h := numUB / (speed - uUB)
	if fm := float64(maxD); fm > h {
		h = fm
	}
	if !(h < horizonSafeBound) {
		return false
	}
	if !(float64(n)+(h+1)*invPUB < float64(maxCheckpoints)/2) {
		return false
	}
	if !(densUB*(h+1) < horizonSafeBound) {
		return false
	}
	return true
}

// ApproxFeasibleEDF is the k-step approximate test: it checks the exact
// demand at each task's first k deadlines and the linear bound beyond.
// It never accepts an infeasible set (ApproxDBF ≥ DBF); it may reject
// feasible sets by a factor at most (1 + 1/k) in speed. Checkpoints past
// int64 range are skipped only when linearBoundHolds proves they pass;
// otherwise the answer is ErrHorizonTooLarge.
func ApproxFeasibleEDF(s Set, speed float64, k int) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return false, fmt.Errorf("dbf: speed %v must be positive and finite", speed)
	}
	if k < 1 {
		k = 1
	}
	u := s.TotalUtilization()
	if u > speed*(1+1e-12) {
		return false, nil
	}
	// Checkpoints: each task's first k deadlines (beyond them the
	// approximate dbf is linear with slope ≤ Σw ≤ speed, so if it holds
	// at every switch point it holds forever).
	var points []int64
	beyond := false
	for _, t := range s {
		p := t.Deadline
		for j := 0; j < k; j++ {
			points = append(points, p)
			if j == k-1 {
				break
			}
			if p > math.MaxInt64-t.Period {
				beyond = true // the remaining points lie past int64 range
				break
			}
			p += t.Period
		}
	}
	if beyond && !linearBoundHolds(s, speed) {
		return false, ErrHorizonTooLarge
	}
	sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
	for _, t := range points {
		if s.ApproxDBF(t, k) > speed*float64(t)*(1+1e-12) {
			return false, nil
		}
	}
	return true, nil
}

// linearBoundHolds reports whether the approximate test may skip every
// checkpoint past int64 range. Each task contributes at most
// C + w·(t − D) to ApproxDBF(t) at any t ≥ 0: exactly that past its
// switch point, a step value j·C ≤ C + w·(t − D) before it, and
// 0 ≤ C − w·D ≤ C + w·(t − D) for t < D (D ≤ P gives w·D ≤ C). So
// ApproxDBF(t) ≤ L(t) = Σ(C − w·D) + U·t.
// The caller has established U ≤ speed·(1+1e-12), so
// L(t) − speed·t·(1+1e-12) never increases with t: if L passes at
// t = 2^63, every checkpoint past int64 range passes too.
func linearBoundHolds(s Set, speed float64) bool {
	const t = float64(1 << 63)
	l := 0.0
	for _, tk := range s {
		l += float64(tk.WCET) + tk.Utilization()*(t-float64(tk.Deadline))
	}
	return l <= speed*t*(1+1e-12)
}

// FirstFit runs the paper's partitioning algorithm with DBF admission:
// tasks in non-increasing density order, machines in non-decreasing
// speed order, first machine whose accumulated set stays EDF-feasible at
// speed α·s. The exact test runs per admission when k <= 0; otherwise
// the k-step approximate test. It is FirstFitResult's verdict and
// assignment.
func FirstFit(s Set, p machine.Platform, alpha float64, k int) (feasible bool, assignment []int, err error) {
	res, err := FirstFitResult(s, p, alpha, k)
	return res.Feasible, res.Assignment, err
}

// FirstFitResult is FirstFit's whole answer. Tasks are taken in density
// order (ties by deadline, then input index). On rejection FailedTask is
// the first task no machine admits; it and every later task are
// unplaced (-1). Loads are each machine's utilization, summed in that
// same order up to the failure.
func FirstFitResult(s Set, p machine.Platform, alpha float64, k int) (partition.Result, error) {
	if err := s.Validate(); err != nil {
		return partition.Result{}, err
	}
	if err := p.Validate(); err != nil {
		return partition.Result{}, fmt.Errorf("dbf: %w", err)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return partition.Result{}, fmt.Errorf("dbf: alpha %v must be positive", alpha)
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := s[order[a]].Density(), s[order[b]].Density()
		if da != db {
			return da > db
		}
		return s[order[a]].Deadline < s[order[b]].Deadline
	})
	mOrder := make([]int, len(p))
	for j := range mOrder {
		mOrder[j] = j
	}
	sort.SliceStable(mOrder, func(a, b int) bool { return p[mOrder[a]].Speed < p[mOrder[b]].Speed })

	res := partition.Result{
		Assignment: make([]int, len(s)),
		FailedTask: -1,
		Loads:      make([]float64, len(p)),
		Alpha:      alpha,
	}
	for i := range res.Assignment {
		res.Assignment[i] = -1
	}
	perMachine := make([]Set, len(p))
	for _, ti := range order {
		placed := false
		for _, mj := range mOrder {
			candidate := append(append(Set{}, perMachine[mj]...), s[ti])
			var ok bool
			var aerr error
			if k <= 0 {
				ok, aerr = FeasibleEDF(candidate, alpha*p[mj].Speed)
			} else {
				ok, aerr = ApproxFeasibleEDF(candidate, alpha*p[mj].Speed, k)
			}
			if aerr != nil {
				return partition.Result{}, aerr
			}
			if ok {
				perMachine[mj] = candidate
				res.Assignment[ti] = mj
				res.Loads[mj] += s[ti].Utilization()
				placed = true
				break
			}
		}
		if !placed {
			res.FailedTask = ti
			return res, nil
		}
	}
	res.Feasible = true
	return res, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
