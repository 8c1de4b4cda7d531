// Package partition implements the paper's partitioning algorithm (§III)
// and the baseline heuristics the experiments ablate against.
//
// The paper's algorithm: sort tasks by non-increasing utilization, sort
// machines by non-decreasing speed, and first-fit each task onto the
// earliest machine whose single-machine admission test still passes under
// speed augmentation α. The admission test is pluggable (EDF utilization,
// RMS Liu–Layland, hyperbolic, exact RTA), as are the fit heuristic and
// both sort orders, so a single engine expresses the paper's algorithm and
// every ablation variant.
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"partfeas/internal/machine"
	"partfeas/internal/sched"
	"partfeas/internal/task"
)

// AdmissionTest decides whether one more task fits on one machine.
// Implementations must be pure: same inputs, same answer.
type AdmissionTest interface {
	// Name identifies the test in reports ("edf", "rms-ll", …).
	Name() string
	// Fits reports whether tk can join the tasks already assigned to a
	// machine of the given (already speed-augmented) speed. assigned and
	// totalUtil describe the current state; totalUtil is maintained by
	// the engine so utilization-only tests avoid re-summing.
	Fits(assigned task.Set, totalUtil float64, tk task.Task, speed float64) bool
}

// EDFAdmission is the exact EDF test of Theorem II.2: Σ w ≤ s.
type EDFAdmission struct{}

// Name implements AdmissionTest.
func (EDFAdmission) Name() string { return "edf" }

// Fits implements AdmissionTest.
func (EDFAdmission) Fits(_ task.Set, totalUtil float64, tk task.Task, speed float64) bool {
	return totalUtil+tk.Utilization() <= speed
}

// RMSLLAdmission is the Liu–Layland sufficient test of Theorem II.3:
// Σ w ≤ (|S|+1)(2^{1/(|S|+1)} − 1)·s.
type RMSLLAdmission struct{}

// Name implements AdmissionTest.
func (RMSLLAdmission) Name() string { return "rms-ll" }

// Fits implements AdmissionTest.
func (RMSLLAdmission) Fits(assigned task.Set, totalUtil float64, tk task.Task, speed float64) bool {
	n := len(assigned) + 1
	return totalUtil+tk.Utilization() <= sched.LiuLaylandBound(n)*speed
}

// RMSHyperbolicAdmission is the Bini–Buttazzo hyperbolic sufficient test:
// Π (w_i/s + 1) ≤ 2. Strictly dominates Liu–Layland; used by the E11
// ablation.
type RMSHyperbolicAdmission struct{}

// Name implements AdmissionTest.
func (RMSHyperbolicAdmission) Name() string { return "rms-hyperbolic" }

// Fits implements AdmissionTest. The product is accumulated over the
// assigned tasks in placement order with the candidate's term applied
// last — the same left-fold the Solver maintains incrementally, so both
// paths round identically.
func (RMSHyperbolicAdmission) Fits(assigned task.Set, _ float64, tk task.Task, speed float64) bool {
	if speed <= 0 {
		return false
	}
	prod := 1.0
	for _, a := range assigned {
		prod *= a.Utilization()/speed + 1
		if prod > 2 {
			// Every factor is ≥ 1, so the full product can only be larger.
			return false
		}
	}
	return prod*(tk.Utilization()/speed+1) <= 2
}

// RMSExactAdmission runs exact response-time analysis — the strongest
// (necessary and sufficient) RM admission; used by the E11 ablation.
type RMSExactAdmission struct{}

// Name implements AdmissionTest.
func (RMSExactAdmission) Name() string { return "rms-exact" }

// Fits implements AdmissionTest.
func (RMSExactAdmission) Fits(assigned task.Set, _ float64, tk task.Task, speed float64) bool {
	candidate := make(task.Set, 0, len(assigned)+1)
	candidate = append(candidate, assigned...)
	candidate = append(candidate, tk)
	ok, err := sched.RMSFeasibleExact(candidate, speed)
	return err == nil && ok
}

// Heuristic selects which admissible machine receives the task.
type Heuristic int

const (
	// FirstFit takes the earliest admissible machine in machine order —
	// the paper's choice.
	FirstFit Heuristic = iota
	// BestFit takes the admissible machine with the least remaining
	// utilization capacity (α·s − load − w) after placement.
	BestFit
	// WorstFit takes the admissible machine with the most remaining
	// capacity after placement.
	WorstFit
	// NextFit keeps a cursor: it only considers the current machine and
	// moves forward (never back) when the task does not fit.
	NextFit
)

func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// TaskOrder selects the order tasks are offered to the heuristic.
type TaskOrder int

const (
	// TasksByUtilizationDesc is the paper's order: w_i ≥ w_{i+1}.
	TasksByUtilizationDesc TaskOrder = iota
	// TasksAsGiven keeps the input order (ablation).
	TasksAsGiven
	// TasksByUtilizationAsc is the reverse of the paper's order (ablation).
	TasksByUtilizationAsc
)

func (o TaskOrder) String() string {
	switch o {
	case TasksByUtilizationDesc:
		return "util-desc"
	case TasksAsGiven:
		return "as-given"
	case TasksByUtilizationAsc:
		return "util-asc"
	default:
		return fmt.Sprintf("TaskOrder(%d)", int(o))
	}
}

// MachineOrder selects the order machines are scanned.
type MachineOrder int

const (
	// MachinesBySpeedAsc is the paper's order: slowest first.
	MachinesBySpeedAsc MachineOrder = iota
	// MachinesBySpeedDesc scans fastest first (ablation).
	MachinesBySpeedDesc
	// MachinesAsGiven keeps the input order (ablation).
	MachinesAsGiven
)

func (o MachineOrder) String() string {
	switch o {
	case MachinesBySpeedAsc:
		return "speed-asc"
	case MachinesBySpeedDesc:
		return "speed-desc"
	case MachinesAsGiven:
		return "as-given"
	default:
		return fmt.Sprintf("MachineOrder(%d)", int(o))
	}
}

// Config parameterizes one partitioning run.
type Config struct {
	// Admission is the per-machine schedulability test. Required.
	Admission AdmissionTest
	// Alpha is the speed augmentation α applied to every machine before
	// admission. Zero means 1 (no augmentation). The paper's algorithm
	// uses α ≥ 1; values in (0, 1) are accepted too — they model running
	// the test on a uniformly slower platform, which the ratio
	// measurements in internal/experiments need.
	Alpha float64
	// Heuristic defaults to FirstFit.
	Heuristic Heuristic
	// TaskOrder defaults to TasksByUtilizationDesc.
	TaskOrder TaskOrder
	// MachineOrder defaults to MachinesBySpeedAsc.
	MachineOrder MachineOrder
}

// Paper returns the paper's configuration for the given admission test and
// augmentation: first-fit, utilization-descending tasks, speed-ascending
// machines.
func Paper(admission AdmissionTest, alpha float64) Config {
	return Config{Admission: admission, Alpha: alpha}
}

// Result describes a partitioning attempt.
type Result struct {
	// Feasible is true when every task was placed.
	Feasible bool
	// Assignment maps each task index (input order) to its machine index
	// (input order), or -1 for tasks that were never placed. When the run
	// fails, tasks after the failing one are left unplaced, matching the
	// algorithm's "declare failure" semantics.
	Assignment []int
	// FailedTask is the input index of the task that could not be placed,
	// or -1 on success. This is the τ_n of the paper's analysis.
	FailedTask int
	// Loads holds the utilization assigned to each machine (input order).
	Loads []float64
	// Alpha echoes the augmentation used.
	Alpha float64
}

// MachineSets reconstructs the per-machine task sets from a result.
func (r Result) MachineSets(ts task.Set, m int) []task.Set {
	sets := make([]task.Set, m)
	for i, j := range r.Assignment {
		if j >= 0 {
			sets[j] = append(sets[j], ts[i])
		}
	}
	return sets
}

// Partition runs the configured algorithm once. It is a thin wrapper
// over Solver for one-shot callers; repeated queries on the same instance
// (bisection, sensitivity sweeps, trial loops) should construct a Solver
// and call Solve directly so the sort orders and scratch buffers are
// reused. The returned Result is owned by the caller.
func Partition(ts task.Set, p machine.Platform, cfg Config) (Result, error) {
	s, err := NewSolver(ts, p, cfg)
	if err != nil {
		return Result{}, err
	}
	// The solver is discarded, so the Result's aliasing of its scratch is
	// harmless: the caller becomes the sole owner.
	return s.Solve(cfg.Alpha)
}

// TaskLessUtilDesc is the paper's task order as a strict total order on
// input indices a, b of ts: utilization descending by exact rational
// comparison, ties broken by period, name, then input index. orderTasks,
// the Solver's incremental re-sort and the online engine's insertion
// search all use this single definition, which is what makes their
// placements byte-identical. The tasks must be valid (WCET and period
// positive): w_a > w_b iff C_a·P_b > C_b·P_a, compared as exact 128-bit
// products.
func TaskLessUtilDesc(ts task.Set, a, b int) bool {
	ah, al := bits.Mul64(uint64(ts[a].WCET), uint64(ts[b].Period))
	bh, bl := bits.Mul64(uint64(ts[b].WCET), uint64(ts[a].Period))
	if ah != bh {
		return ah > bh
	}
	if al != bl {
		return al > bl
	}
	if ts[a].Period != ts[b].Period {
		return ts[a].Period < ts[b].Period
	}
	if ts[a].Name != ts[b].Name {
		return ts[a].Name < ts[b].Name
	}
	return a < b
}

// MachineLessSpeedAsc is the paper's machine scan order as a strict total
// order on input indices a, b of p: speed ascending, ties by input index.
func MachineLessSpeedAsc(p machine.Platform, a, b int) bool {
	if p[a].Speed != p[b].Speed {
		return p[a].Speed < p[b].Speed
	}
	return a < b
}

// lessCmp turns a strict total order's less(a, b) into a three-way
// comparison for slices.SortFunc: 0 only when a == b, so every correct
// sort yields the same unique permutation.
func lessCmp(less bool, a, b int) int {
	switch {
	case less:
		return -1
	case a == b:
		return 0
	default:
		return 1
	}
}

func orderTasks(ts task.Set, o TaskOrder) ([]int, error) {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	switch o {
	case TasksAsGiven:
		return idx, nil
	case TasksByUtilizationDesc, TasksByUtilizationAsc:
		slices.SortFunc(idx, func(a, b int) int {
			return lessCmp(TaskLessUtilDesc(ts, a, b), a, b)
		})
		if o == TasksByUtilizationAsc {
			for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("partition: unknown task order %v", o)
	}
}

func orderMachines(p machine.Platform, o MachineOrder) ([]int, error) {
	idx := make([]int, len(p))
	for j := range idx {
		idx[j] = j
	}
	switch o {
	case MachinesAsGiven:
		return idx, nil
	case MachinesBySpeedAsc:
		slices.SortFunc(idx, func(a, b int) int {
			return lessCmp(MachineLessSpeedAsc(p, a, b), a, b)
		})
		return idx, nil
	case MachinesBySpeedDesc:
		slices.SortFunc(idx, func(a, b int) int {
			if p[a].Speed != p[b].Speed {
				return cmp.Compare(p[b].Speed, p[a].Speed)
			}
			return a - b
		})
		return idx, nil
	default:
		return nil, fmt.Errorf("partition: unknown machine order %v", o)
	}
}
