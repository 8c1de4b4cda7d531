package online

import (
	"fmt"
	"sort"

	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// BatchMode selects how AdmitBatch treats a batch that does not fit in
// its entirety.
type BatchMode int

const (
	// BestEffort admits the subset a sequential Admit of the batch (in
	// input order) would admit: admitted tasks stay, rejected ones leave
	// no trace. The whole-batch case still runs as one merged replay.
	BestEffort BatchMode = iota
	// AllOrNothing admits the batch only if the union of the resident
	// set and the whole batch is feasible, as one transaction; otherwise
	// the engine is unchanged and the result is the failed fresh-solve
	// witness over the union.
	AllOrNothing
)

func (m BatchMode) String() string {
	switch m {
	case BestEffort:
		return "best_effort"
	case AllOrNothing:
		return "all_or_nothing"
	default:
		return fmt.Sprintf("BatchMode(%d)", int(m))
	}
}

// AdmitBatch offers several tasks at once. Admitted tasks receive
// consecutive ids in input order starting at the pre-call Len(); the
// returned slice reports each input task's verdict. Under the ordered
// policy the batch is merged into the placement order and placed by a
// single suffix replay — one pass regardless of how many insertions the
// batch scatters across the order — and the resulting state is
// byte-identical to admitting the tasks one by one (and hence to a fresh
// sorted solve over the surviving multiset). res is the engine's new
// state on (full or partial) success, or the rejection witness when
// nothing was admitted. An error means the batch was malformed and the
// engine is untouched.
func (e *Engine) AdmitBatch(ts []task.Task, mode BatchMode) (res partition.Result, admitted []bool, err error) {
	switch mode {
	case BestEffort, AllOrNothing:
	default:
		return partition.Result{}, nil, fmt.Errorf("online: unknown batch mode %v", mode)
	}
	for i := range ts {
		if err := ts[i].Validate(); err != nil {
			return partition.Result{}, nil, fmt.Errorf("online: batch task %d: %w", i, err)
		}
	}
	e.enterOp()
	res, admitted, err = e.admitBatch(ts, nil, mode)
	if e.exitOp(err == nil && anyTrue(admitted)) {
		res = e.Result() // re-snapshot past the applied repartition
	}
	return res, admitted, err
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// admitBatch is the shared batch core. dls carries per-task deadlines
// for constrained-deadline engines (nil means implicit, D = P); tasks
// and mode are already validated.
func (e *Engine) admitBatch(ts []task.Task, dls []int64, mode BatchMode) (res partition.Result, admitted []bool, err error) {
	if len(ts) == 0 {
		return e.Result(), nil, nil
	}
	if !e.ordered || len(ts) == 1 {
		return e.admitBatchSequential(ts, dls, mode)
	}

	// Merged transaction: append the batch, merge its ids into the
	// placement order in one backward two-pointer pass (the order is a
	// strict total order with an id tie-break, so the merged layout is
	// exactly the one sequential sort.Search insertions produce), then
	// replay once from the first merged position.
	n0 := len(e.tasks)
	for i, t := range ts {
		e.tasks = append(e.tasks, t)
		e.utils = append(e.utils, t.Utilization())
		e.assign = append(e.assign, -1)
		e.assignPub = append(e.assignPub, -1)
		e.pos = append(e.pos, 0)
		if e.kind == admDBF {
			d := t.Period
			if dls != nil {
				d = dls[i]
			}
			e.dl = append(e.dl, d)
			e.dens = append(e.dens, float64(t.WCET)/float64(d))
		}
	}
	ids := e.batchIDs[:0]
	for id := n0; id < n0+len(ts); id++ {
		ids = append(ids, int32(id))
	}
	sort.Slice(ids, func(a, b int) bool { return e.less(ids[a], ids[b]) })
	e.batchIDs = ids
	e.sorted = append(e.sorted, ids...)
	w := len(e.sorted) - 1
	oi := n0 - 1
	for b := len(ids) - 1; b >= 0; w-- {
		if oi >= 0 && e.less(ids[b], e.sorted[oi]) {
			e.sorted[w] = e.sorted[oi]
			oi--
		} else {
			e.sorted[w] = ids[b]
			b--
		}
	}
	kmin := w + 1 // final position of the batch's first task; prefix untouched
	e.recomputePos(kmin)
	e.begin(edit{op: opBatchInsert, id: n0, kOld: kmin})
	e.stats = OpStats{ReplayFrom: kmin, BatchSize: len(ts)}
	failID := e.replayFrom(kmin)
	if failID >= 0 && mode == BestEffort && e.probeErr == nil {
		// Best effort with a conflicting batch: fall back to the
		// sequential path, which is the mode's defining semantics.
		e.rollback()
		return e.admitBatchSequential(ts, dls, mode)
	}
	res, ok, err := e.settle(failID, -1, false)
	if err == nil {
		admitted = make([]bool, len(ts))
		for i := range admitted {
			admitted[i] = ok
		}
	}
	return res, admitted, err
}

// admitBatchSequential admits the batch one task at a time. For
// AllOrNothing a failure undoes the already-admitted prefix (only
// reachable under local policies, where removal always succeeds).
func (e *Engine) admitBatchSequential(ts []task.Task, dls []int64, mode BatchMode) (partition.Result, []bool, error) {
	admitted := make([]bool, len(ts))
	nAdmitted := 0
	var witness partition.Result
	rejected := false
	total := 0
	for i, t := range ts {
		d := t.Period
		if dls != nil {
			d = dls[i]
		}
		r, ok, err := e.admitOne(t, d, false)
		if err != nil {
			return partition.Result{}, nil, err
		}
		total += e.stats.Visited
		if ok {
			admitted[i] = true
			nAdmitted++
		} else {
			rejected = true
			witness = r
			if mode == AllOrNothing {
				break
			}
		}
	}
	e.stats = OpStats{ReplayFrom: -1, Visited: total, BatchSize: len(ts)}
	if mode == AllOrNothing && rejected {
		for ; nAdmitted > 0; nAdmitted-- {
			if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
				return partition.Result{}, nil, fmt.Errorf("online: batch undo failed: removed=%v err=%v", ok, err)
			}
		}
		e.stats = OpStats{ReplayFrom: -1, BatchSize: len(ts)}
		return witness, make([]bool, len(ts)), nil
	}
	if nAdmitted == 0 && rejected {
		return witness, admitted, nil
	}
	return e.Result(), admitted, nil
}
