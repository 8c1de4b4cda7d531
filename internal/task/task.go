// Package task models implicit-deadline sporadic task systems.
//
// A sporadic task τ_i releases an infinite sequence of jobs. Consecutive
// releases of τ_i are separated by at least its period P_i, each job needs
// up to C_i units of work on a unit-speed machine, and must finish within
// P_i time units of its release (implicit deadline). The utilization
// w_i = C_i / P_i is the only parameter the paper's feasibility tests look
// at; the simulator additionally uses the exact integer C_i and P_i.
package task

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"partfeas/internal/rational"
)

// Task is one implicit-deadline sporadic task. WCET and Period are in
// integer time units on a unit-speed machine; on a machine of speed s the
// task's jobs need WCET/s time.
type Task struct {
	// Name optionally identifies the task in reports. May be empty.
	Name string
	// WCET is the worst-case execution time C_i (> 0).
	WCET int64
	// Period is the minimum inter-release separation and relative
	// deadline P_i (> 0).
	Period int64
}

// Validate reports whether the task parameters are well-formed.
func (t Task) Validate() error {
	if t.WCET <= 0 {
		return fmt.Errorf("task %s: WCET %d must be positive", t.label(), t.WCET)
	}
	if t.Period <= 0 {
		return fmt.Errorf("task %s: period %d must be positive", t.label(), t.Period)
	}
	return nil
}

func (t Task) label() string {
	if t.Name == "" {
		return "(unnamed)"
	}
	return t.Name
}

// Utilization returns w_i = C_i / P_i as a float64.
func (t Task) Utilization() float64 { return float64(t.WCET) / float64(t.Period) }

// UtilizationRat returns w_i exactly.
func (t Task) UtilizationRat() rational.Rat {
	return rational.MustNew(t.WCET, t.Period)
}

// String renders the task as "name(C/P)".
func (t Task) String() string {
	return fmt.Sprintf("%s(C=%d,P=%d)", t.label(), t.WCET, t.Period)
}

// Set is an ordered collection of tasks. The order is significant to the
// partitioning algorithm: the paper's algorithm sorts by non-increasing
// utilization before first-fit.
type Set []Task

// Validate checks every task in the set.
func (s Set) Validate() error {
	if len(s) == 0 {
		return errors.New("task set: empty")
	}
	for i, t := range s {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("task %d: %w", i, err)
		}
	}
	return nil
}

// TotalUtilization returns Σ w_i.
func (s Set) TotalUtilization() float64 {
	// Kahan summation: utilization sums feed directly into feasibility
	// comparisons, so keep the error at one ulp rather than n ulps.
	var sum, comp float64
	for _, t := range s {
		y := t.Utilization() - comp
		v := sum + y
		comp = (v - sum) - y
		sum = v
	}
	return sum
}

// TotalUtilizationRat returns Σ w_i exactly.
func (s Set) TotalUtilizationRat() (rational.Rat, error) {
	total := rational.Zero()
	var err error
	for _, t := range s {
		total, err = total.Add(t.UtilizationRat())
		if err != nil {
			return rational.Rat{}, fmt.Errorf("task set utilization: %w", err)
		}
	}
	return total, nil
}

// MaxUtilization returns max_i w_i, or 0 for an empty set.
func (s Set) MaxUtilization() float64 {
	maxU := 0.0
	for _, t := range s {
		if u := t.Utilization(); u > maxU {
			maxU = u
		}
	}
	return maxU
}

// Utilizations returns the slice of w_i in set order.
func (s Set) Utilizations() []float64 {
	us := make([]float64, len(s))
	for i, t := range s {
		us[i] = t.Utilization()
	}
	return us
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Hyperperiod returns lcm of all periods, or an error if it overflows
// int64. The simulator uses this as its horizon: for synchronous periodic
// arrivals of implicit-deadline tasks, a miss-free hyperperiod certifies
// the infinite schedule.
func (s Set) Hyperperiod() (int64, error) {
	if len(s) == 0 {
		return 0, errors.New("task set: hyperperiod of empty set")
	}
	l := int64(1)
	for _, t := range s {
		g := gcd(l, t.Period)
		q := l / g
		if q != 0 && t.Period > math.MaxInt64/q {
			return 0, fmt.Errorf("task set: hyperperiod overflows int64 (at period %d)", t.Period)
		}
		l = q * t.Period
	}
	return l, nil
}

// String renders the set compactly.
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FromUtilizations builds a task set from utilization values, assigning
// each task the given period and WCET = round(u * period). Utilities
// outside (0, 1] per unit period are clamped to at least WCET 1. This is a
// convenience for tests and generators that think in utilizations.
func FromUtilizations(us []float64, period int64) (Set, error) {
	if period <= 0 {
		return nil, fmt.Errorf("task: FromUtilizations period %d must be positive", period)
	}
	s := make(Set, len(us))
	for i, u := range us {
		if u <= 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("task: FromUtilizations utilization %v at index %d invalid", u, i)
		}
		c := int64(math.Round(u * float64(period)))
		if c < 1 {
			c = 1
		}
		s[i] = Task{Name: fmt.Sprintf("t%d", i), WCET: c, Period: period}
	}
	return s, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		a = -a
	}
	if a == 0 {
		return 1
	}
	return a
}
