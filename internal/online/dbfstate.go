package online

// Constrained-deadline (DBF) admission for the online engine. Engines
// of kind admDBF are built by NewEngine with Options.Deadlines set and
// answer each machine probe in two tiers:
//
//	tier 1 (density):   O(1) against the machine's cached folds — the
//	                    utilization pre-check rejects bitwise-identically
//	                    to FeasibleEDF's own, and a total density under
//	                    the speed accepts wherever dbf.HorizonSafe proves
//	                    the exact test would answer rather than fail.
//	tier 2 (exact):     dbf.FeasibleEDF over the candidate, which decides
//	                    by QPA wherever its checkpoint scan would answer,
//	                    with no cache in front of it.
//
// Every density verdict is conclusive: it equals what FeasibleEDF would
// return for the same candidate, errors included, which is what keeps the
// engine's decisions and assignments byte-identical to a fresh
// dbf.FirstFit solve (the property the differential tests enforce). Any
// probe inside the margin band or over an unsafe horizon falls through to
// the exact test.

import (
	"fmt"
	"math"

	"partfeas/internal/dbf"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

const (
	// maxConstrainedPeriod caps periods (hence deadlines) on constrained
	// engines. It is input validation: constrained admission has always
	// refused longer periods.
	maxConstrainedPeriod = int64(1) << 40
)

// Tier indices recorded by noteTier (LastOpStats().MaxTier).
const (
	tierDensity = 1
	tierExact   = 2
)

// validateConstrained is the admission-time validity check for one
// constrained task: well-formed (C ≤ D ≤ P) and under the period cap.
func validateConstrained(t dbf.Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Period > maxConstrainedPeriod {
		return fmt.Errorf("task %q: period %d exceeds the constrained-deadline cap %d", t.Name, t.Period, maxConstrainedPeriod)
	}
	return nil
}

// AdmitConstrained offers one constrained-deadline task. On an
// implicit-deadline engine an implicit task (D = P) is forwarded to
// Admit — before the constrained checks, so it meets exactly Admit's
// validation — and any other deadline is refused.
func (e *Engine) AdmitConstrained(t dbf.Task) (res partition.Result, admitted bool, err error) {
	return e.admitConstrained(t, false)
}

// admitConstrained is AdmitConstrained; force commits a refusal as the
// failure state.
func (e *Engine) admitConstrained(t dbf.Task, force bool) (res partition.Result, admitted bool, err error) {
	tt := task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
	if e.kind != admDBF && t.Deadline == t.Period {
		return e.admit(tt, force)
	}
	if verr := validateConstrained(t); verr != nil {
		return partition.Result{}, false, fmt.Errorf("online: %w", verr)
	}
	if e.kind != admDBF {
		return partition.Result{}, false, fmt.Errorf("online: implicit-deadline engine cannot admit constrained deadline %d < period %d", t.Deadline, t.Period)
	}
	return e.admitOne(tt, t.Deadline, force)
}

// AdmitBatchConstrained is AdmitBatch for constrained-deadline tasks;
// the batch shares one merged replay exactly like the implicit path. On
// an implicit-deadline engine a batch of implicit tasks (every D = P) is
// forwarded to AdmitBatch, like AdmitConstrained forwards to Admit.
func (e *Engine) AdmitBatchConstrained(ts dbf.Set, mode BatchMode) (partition.Result, []bool, error) {
	tts, dls := splitConstrained(ts)
	if e.kind != admDBF && implicitDeadlines(ts) {
		return e.AdmitBatch(tts, mode)
	}
	switch mode {
	case BestEffort, AllOrNothing:
	default:
		return partition.Result{}, nil, fmt.Errorf("online: unknown batch mode %v", mode)
	}
	if e.kind != admDBF {
		return partition.Result{}, nil, fmt.Errorf("online: constrained batch admission needs a constrained-deadline engine")
	}
	for i, t := range ts {
		if err := validateConstrained(t); err != nil {
			return partition.Result{}, nil, fmt.Errorf("online: batch task %d: %w", i, err)
		}
	}
	return e.admitBatch(tts, dls, mode)
}

// splitConstrained decomposes a dbf.Set into the implicit task set and
// the parallel deadline slice.
func splitConstrained(ts dbf.Set) (task.Set, []int64) {
	tts := make(task.Set, len(ts))
	dls := make([]int64, len(ts))
	for i, t := range ts {
		tts[i] = task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		dls[i] = t.Deadline
	}
	return tts, dls
}

// implicitDeadlines reports whether every task's deadline is its period.
func implicitDeadlines(ts dbf.Set) bool {
	for _, t := range ts {
		if t.Deadline != t.Period {
			return false
		}
	}
	return true
}

// Deadline returns task id's relative deadline (the period on
// implicit-deadline engines).
func (e *Engine) Deadline(id int) int64 {
	if e.kind == admDBF {
		return e.dl[id]
	}
	return e.tasks[id].Period
}

// TierCounts returns the cumulative number of admission probes decided
// by the density and exact tiers since construction. approx is always
// zero (the engine has no approximate tier); all three are zero on
// implicit-deadline engines.
func (e *Engine) TierCounts() (density, approx, exact uint64) {
	return e.tierCnt[0], 0, e.tierCnt[1]
}

// ConstrainedTasks returns a copy of the resident multiset as a dbf.Set
// in id order (implicit engines report D = P).
func (e *Engine) ConstrainedTasks() dbf.Set {
	s := make(dbf.Set, len(e.tasks))
	for i, t := range e.tasks {
		s[i] = dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.Deadline(i), Period: t.Period}
	}
	return s
}

// noteTier records the tier that decided a probe.
func (e *Engine) noteTier(t int) {
	if t > e.stats.MaxTier {
		e.stats.MaxTier = t
	}
	e.tierCnt[t-1]++
}

// fitsDBF answers the DBF admission query for task id against machine
// j's first x placements: its current state when x = len(placed), or an
// untouched machine's historical prefix. The verdict equals
// dbf.FeasibleEDF over the candidate built in placement order (with any
// error recorded in probeErr and surfaced by the mutation).
func (e *Engine) fitsDBF(j int, id int32, x int) bool {
	mc := &e.machs[j]
	s := e.speeds[j]
	u := e.utils[id]
	var load, dens, num, invP float64
	var maxD int64
	if x > 0 {
		load, dens, num, invP, maxD = mc.cum[x-1], mc.cumDens[x-1], mc.cumNum[x-1], mc.cumInvP[x-1], mc.cumMaxD[x-1]
	}
	// The fold total is the same addition chain a fresh TotalUtilization
	// performs over the machine's placed order, so this comparison is
	// bitwise FeasibleEDF's utilization pre-check over the candidate.
	newU := load + u
	if newU > s*(1+1e-12) {
		e.noteTier(tierDensity)
		return false
	}
	t := e.tasks[id]
	d := e.dl[id]
	if densityAccepts(s, newU, dens+e.dens[id], num+float64(t.Period-d)*u, invP+1/float64(t.Period), max(maxD, d), x+1) {
		e.noteTier(tierDensity)
		return true
	}
	e.noteTier(tierExact)
	ok, _ := e.exactFits(j, id, x)
	return ok
}

// densityAccepts is the density tier's accept for a candidate with
// total utilization u, density dens, Σ(P−D)·w num, Σ1/P invP, max
// deadline maxD and n tasks on a speed-s machine. The folds' rounding
// differs from a fresh summation by a few ulps per resident; the 1e-9
// inflation dominates it by orders of magnitude, as HorizonSafe's
// contract requires.
func densityAccepts(s, u, dens, num, invP float64, maxD int64, n int) bool {
	return dbf.HorizonSafe(s, u*(1+1e-9), dens*(1+1e-9), invP*(1+1e-9), num*(1+1e-9), maxD, n) &&
		dens <= s*(1-1e-9)
}

// exactFits runs dbf.FeasibleEDF over machine j's first x placements
// plus candidate id, in placement order. An error is recorded in
// probeErr and reported as a rejection; the mutation surfaces it after
// the pass.
func (e *Engine) exactFits(j int, id int32, x int) (bool, error) {
	cb := e.candBuf[:0]
	for _, pid := range e.machs[j].placed[:x] {
		pt := e.tasks[pid]
		cb = append(cb, dbf.Task{Name: pt.Name, WCET: pt.WCET, Deadline: e.dl[pid], Period: pt.Period})
	}
	t := e.tasks[id]
	cb = append(cb, dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.dl[id], Period: t.Period})
	e.candBuf = cb
	ok, err := dbf.FeasibleEDF(cb, e.speeds[j])
	if err != nil && e.probeErr == nil {
		e.probeErr = err
	}
	return ok, err
}

// placeDBF extends machine j's DBF folds with task id. The caller (place) invokes it before
// appending to the placed list, so the fold tails describe the
// pre-placement residents.
func (e *Engine) placeDBF(j int, id int32) {
	mc := &e.machs[j]
	t := e.tasks[id]
	d := e.dl[id]
	mc.cumDens = append(mc.cumDens, mc.densLoad()+e.dens[id])
	mc.cumNum = append(mc.cumNum, mc.numLoad()+float64(t.Period-d)*e.utils[id])
	mc.cumInvP = append(mc.cumInvP, mc.invPLoad()+1/float64(t.Period))
	mc.cumMaxD = append(mc.cumMaxD, max(mc.maxDLoad(), d))
}

// selfCheckDBF extends SelfCheck with the constrained-deadline
// invariants: per-task deadline/density consistency, bitwise fold
// re-derivation, and exact EDF feasibility of every machine's resident
// set.
func (e *Engine) selfCheckDBF() error {
	n := len(e.tasks)
	if len(e.dl) != n || len(e.dens) != n {
		return fmt.Errorf("online: dbf per-task state lengths out of sync")
	}
	for id := 0; id < n; id++ {
		t := e.tasks[id]
		d := e.dl[id]
		if d < t.WCET || d > t.Period {
			return fmt.Errorf("online: task %d deadline %d outside [C=%d, P=%d]", id, d, t.WCET, t.Period)
		}
		if e.dens[id] != float64(t.WCET)/float64(d) {
			return fmt.Errorf("online: task %d density %v out of sync", id, e.dens[id])
		}
	}
	for j := range e.machs {
		mc := &e.machs[j]
		np := len(mc.placed)
		if len(mc.cumDens) != np || len(mc.cumNum) != np || len(mc.cumInvP) != np || len(mc.cumMaxD) != np {
			return fmt.Errorf("online: machine %d dbf fold length mismatch", j)
		}
		var dens, num, invP float64
		var maxD int64
		for x, id := range mc.placed {
			t := e.tasks[id]
			dens += e.dens[id]
			num += float64(t.Period-e.dl[id]) * e.utils[id]
			invP += 1 / float64(t.Period)
			if e.dl[id] > maxD {
				maxD = e.dl[id]
			}
			if math.Float64bits(dens) != math.Float64bits(mc.cumDens[x]) ||
				math.Float64bits(num) != math.Float64bits(mc.cumNum[x]) ||
				math.Float64bits(invP) != math.Float64bits(mc.cumInvP[x]) {
				return fmt.Errorf("online: machine %d dbf fold mismatch at %d", j, x)
			}
			if maxD != mc.cumMaxD[x] {
				return fmt.Errorf("online: machine %d cumMaxD[%d] = %d, refold %d", j, x, mc.cumMaxD[x], maxD)
			}
		}
		if np == 0 {
			continue
		}
		set := make(dbf.Set, 0, np)
		for _, id := range mc.placed {
			t := e.tasks[id]
			set = append(set, dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.dl[id], Period: t.Period})
		}
		if ok, err := dbf.FeasibleEDF(set, e.speeds[j]); err != nil {
			return fmt.Errorf("online: machine %d exact test: %w", j, err)
		} else if !ok {
			return fmt.Errorf("online: machine %d infeasible under exact DBF", j)
		}
	}
	return nil
}
