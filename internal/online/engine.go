// Package online implements an incremental version of the paper's §III
// partitioned feasibility test: an admission engine that keeps live
// per-machine load state (EDF utilization sums, Liu–Layland counts, the
// hyperbolic product) across Admit / Remove / UpdateWCET calls instead
// of re-solving the whole instance on every mutation.
//
// Where a task lands is decided by a pluggable placement Policy
// (policy.go); the engine runs in one of two regimes according to
// Policy.Ordered():
//
//   - The ordered policy (FirstFitSorted) is the paper's order
//     (utilization-descending tasks, speed-ascending machines,
//     first-fit). Every mutation leaves the engine in exactly the state
//     a fresh partition.Solver.Solve(alpha) over the surviving task
//     multiset would produce — decisions, assignments and per-machine
//     load floats are byte-identical, which the differential tests
//     enforce. Mutations that land at the end of the order are
//     answered in O(log m) via a machine-capacity tree; interior
//     mutations replay only the affected suffix, and the replay walks
//     that suffix densely but does near-zero work per stationary task:
//     one binary search over a machine's position-ordered placed list
//     recovers its historical state at any position, cached per-machine
//     admission thresholds let one comparison against a prefix maximum
//     over the dirtied machines dismiss a task whose placement provably
//     cannot change, and consecutive tasks re-folding onto the same
//     dirtied machine are fused into a run with deferred bookkeeping
//     (see replayFrom). Mutations recycle journal buffers through an
//     arena, so steady-state Admit/Remove/UpdateWCET allocate nothing.
//
// Batches of admissions go through AdmitBatch, which merges the whole
// batch into the placement order and runs one replay for all of its
// insertions, with all-or-nothing and best-effort failure modes.
//
//   - Local policies (FirstFitArrival, BestFit, WorstFit, KChoices,
//     PeriodicRepartition) place each task when it arrives by one
//     Policy.Select call against current aggregates and never revisit
//     earlier placements, so every operation is O(m) worst case and
//     O(log m) typical for the first-fit selectors. This forfeits the
//     sorted-order guarantee the paper's bounds are proved for; the gap
//     is observable as drift against the sorted solve, and the
//     repartitioner (repartition.go) measures it and proposes bounded
//     migration plans that restore it — automatically on a cadence
//     under the PeriodicRepartition policy wrapper.
//
// All mutations are transactional: a mutation that would make the set
// infeasible is rolled back via an undo journal and the engine stays in
// its previous state, while the caller still receives the failed
// partition witness a fresh solve would have reported.
//
// A first_fit_sorted implicit-deadline engine refuses some admissions
// without inserting at all (refuseEarly): when a failure state stands
// before the new task's position, or when no machine's prefix state
// before that position admits it, the fresh solve's answer is already
// known, so there is no journal, no renumbering and no replay — m binary
// searches over the placed lists give the loads. Local-policy and
// constrained engines keep the insert-and-rollback refusal (a local
// admit inserts at the end, where that costs O(1)).
//
// Admit, Remove and UpdateWCET return the full partition.Result,
// refusal witness included: an n-entry assignment that the differential
// tests compare with a fresh solve. A served session reads only the
// verdict, the failed task, the m loads and the op task's own machine,
// so it calls AdmitSummary, RemoveSummary and UpdateWCETSummary instead
// (summary.go), which never build the witness assignment: a refused
// admit then costs O(m log n) and allocates nothing.
//
// A first_fit_sorted engine, implicit-deadline or constrained, can also
// commit that witness (a Summary call with force set, or NewEngine over
// an infeasible set) and hold the fresh solve's failure state: the
// placement-order prefix before the first task no machine admits stays
// placed, and that task and every later one are unplaced. For a
// constrained engine that is the state dbf.FirstFit reports. A later
// mutation past the failure position changes nothing placed; one at or
// before it replays from its own position, placing the formerly failed
// suffix as fresh inserts, so feasibility can return without a rebuild.
package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/sched"
	"partfeas/internal/task"
)

// ErrInfeasible is returned by NewEngine when the initial task set does
// not partition at the requested augmentation. A first_fit_sorted
// engine, implicit-deadline or constrained, comes back with it, holding
// the fresh solve's failure state (see the package doc); a local-policy
// engine is nil.
var ErrInfeasible = errors.New("online: initial task set infeasible at this augmentation")

// admKind mirrors the partition solver's fast-path selector; the engine
// supports exactly the admissions whose state folds incrementally.
type admKind int

const (
	admEDF admKind = iota
	admLL
	admHyperbolic
	// admDBF is the constrained-deadline tiered pipeline (dbfstate.go);
	// NewEngine builds engines of this kind when Options.Deadlines is set.
	admDBF
)

// mach is one machine's live placement state: the task ids assigned to
// it in placement order, plus the cumulative left-folds of the admission
// aggregates after each placement. cum[i] is the machine's utilization
// load after placing placed[:i+1] — the exact float sequence a fresh
// solver produces, which is what makes prefix states recoverable without
// re-summing (and without re-rounding).
type mach struct {
	placed  []int32
	cum     []float64
	cumProd []float64 // hyperbolic only

	// admDBF only: parallel left-folds of the quantities the density
	// tier needs in O(1) — density sum, Σ(P−D)·w, Σ1/P and the running
	// max deadline.
	cumDens []float64
	cumNum  []float64
	cumInvP []float64
	cumMaxD []int64
}

func (mc *mach) load() float64 {
	if len(mc.cum) == 0 {
		return 0
	}
	return mc.cum[len(mc.cum)-1]
}

func (mc *mach) prod() float64 {
	if len(mc.cumProd) == 0 {
		return 1
	}
	return mc.cumProd[len(mc.cumProd)-1]
}

func (mc *mach) densLoad() float64 {
	if len(mc.cumDens) == 0 {
		return 0
	}
	return mc.cumDens[len(mc.cumDens)-1]
}

func (mc *mach) numLoad() float64 {
	if len(mc.cumNum) == 0 {
		return 0
	}
	return mc.cumNum[len(mc.cumNum)-1]
}

func (mc *mach) invPLoad() float64 {
	if len(mc.cumInvP) == 0 {
		return 0
	}
	return mc.cumInvP[len(mc.cumInvP)-1]
}

func (mc *mach) maxDLoad() int64 {
	if len(mc.cumMaxD) == 0 {
		return 0
	}
	return mc.cumMaxD[len(mc.cumMaxD)-1]
}

// machSnap is one journaled machine state (the pre-mutation slices are
// moved here intact; the live machine continues on fresh copies).
type machSnap struct {
	j  int
	mc mach
}

type assignSnap struct{ id, mach int32 }

type editOp int

const (
	opNone editOp = iota
	opInsert
	opRemove
	opUpdate
	opBatchInsert
)

// edit records the structural change of the in-flight mutation so
// rollback can undo it without a full-state snapshot.
type edit struct {
	op      editOp
	id      int // task id; first batch id for opBatchInsert
	kOld    int // original placement-order position (opRemove, opUpdate); first merged position (opBatchInsert)
	oldWCET int64
	oldUtil float64
	oldDens float64 // admDBF only: pre-update density (opUpdate)
}

// OpStats describes how the engine executed its most recent mutation;
// the service layer reads it to classify admissions for metrics.
type OpStats struct {
	Tail       bool // end-of-order fast path or arrival-order local op
	ReplayFrom int  // first replayed position; -1 when no replay ran
	Visited    int  // suffix positions the replay actually visited
	BatchSize  int  // number of tasks offered (>1 for AdmitBatch)
	// MaxTier is the deepest admission tier any probe of the mutation
	// reached on a constrained-deadline engine: 1 density, 2 exact
	// FeasibleEDF; 0 on implicit-deadline engines.
	MaxTier int
}

// Engine is the incremental admission engine. It is not safe for
// concurrent use; callers serialize access (the service layer holds its
// per-session mutex around every call).
type Engine struct {
	adm     partition.AdmissionTest
	kind    admKind
	pol     Policy
	ordered bool // pol.Ordered(): the paper's sorted placement order
	alpha   float64

	p       machine.Platform
	machIdx []int     // scan order (speed-ascending), machine input indices
	machPos []int     // machine input index → position in machIdx
	speeds  []float64 // α-scaled speeds, input order

	tasks task.Set // arrival order; slice indices are the public task ids
	utils []float64

	sorted []int32 // task ids in placement order
	pos    []int32 // task id → index in sorted (int32: n < 2^31)
	assign []int32 // task id → machine input index; -1 while unplaced

	// failID is the first unplaced task in placement order (every later
	// one is unplaced too) while the engine holds a failure state, else -1.
	failID int

	// assignPub mirrors assign as []int for Result, maintained
	// incrementally at commit time: tasks whose machine changed are
	// exactly the journaled ones, so the refresh is O(changes), and a
	// rolled-back mutation never reaches the mirror.
	assignPub []int

	machs []mach

	tree   *capTree
	treeOK bool

	epoch    int
	dirty    []int // machine input index → epoch last dirtied
	minDirty int   // min dirtied machine position this epoch; m when none

	// Replay acceleration (per-epoch; reset by begin). dirtyPos lists
	// dirtied machines' scan positions ascending; dirtyTheta is the
	// parallel cache of each one's slack-inflated one-more-task capacity
	// (nextCap); dirtyIdx maps a dirtied machine's input index to its
	// slot in both. pmax caches inclusive prefix maxima of dirtyTheta
	// (pmax[i] = max(dirtyTheta[:i+1])); entries below the pmaxN
	// watermark are valid, the rest are recomputed lazily on read, so
	// "can any dirtied machine before position P admit u?" is one
	// comparison on the replay's hot path instead of a scan.
	dirtyPos   []int
	dirtyTheta []float64
	dirtyIdx   []int
	pmax       []float64
	pmaxN      int

	machPool []mach  // retired state triples (see arena.go)
	batchIDs []int32 // AdmitBatch scratch

	jMachs   []machSnap
	jAssigns []assignSnap
	ed       edit
	edTreeOK bool // treeOK at begin; commit/rollback restore it incrementally

	stats    OpStats
	loadsBuf []float64 // Result scratch; a Summary refusal's loads too

	// brief is set while a Summary call runs: a refusal then answers
	// without its n-entry witness assignment, and briefMach records the
	// op task's entry in that assignment instead.
	brief     bool
	briefMach int

	// Periodic-repartition hook (PeriodicRepartition policies): after
	// every repartEvery-th successful top-level mutation the engine
	// plans and applies a full sorted-first-fit repartition. hookDepth
	// guards nested public calls (the batch undo path calls Remove)
	// from firing the hook mid-operation.
	repartEvery int
	repartCnt   int
	hookDepth   int

	// Constrained-deadline state (admDBF only; see dbfstate.go).
	dl       []int64   // task id → relative deadline
	dens     []float64 // task id → density C/D
	tierCnt  [2]uint64 // cumulative probes decided per tier (density, exact)
	candBuf  dbf.Set   // scratch candidate for exact probes
	probeErr error     // first exact-test error of the in-flight mutation
}

// initState builds everything that does not depend on where tasks end
// up: machine scan order, placement order, and the empty state buffers.
// NewEngine then runs the initial placement pass, or folds recorded
// placed lists instead (restorePlacement).
func (e *Engine) initState() {
	n, m := len(e.tasks), len(e.p)
	e.speeds = make([]float64, m)
	for j := range e.p {
		e.speeds[j] = e.alpha * e.p[j].Speed
	}
	e.machIdx = make([]int, m)
	for j := range e.machIdx {
		e.machIdx[j] = j
	}
	sort.SliceStable(e.machIdx, func(a, b int) bool {
		return partition.MachineLessSpeedAsc(e.p, e.machIdx[a], e.machIdx[b])
	})
	e.machPos = make([]int, m)
	for pp, j := range e.machIdx {
		e.machPos[j] = pp
	}

	e.sorted = make([]int32, n)
	for i := range e.sorted {
		e.sorted[i] = int32(i)
	}
	if e.ordered {
		sort.SliceStable(e.sorted, func(a, b int) bool {
			return e.less(e.sorted[a], e.sorted[b])
		})
	}
	e.pos = make([]int32, n)
	e.recomputePos(0)
	e.failID = -1
	e.assign = make([]int32, n)
	e.assignPub = make([]int, n)
	e.machs = make([]mach, m)
	e.dirty = make([]int, m)
	for j := range e.dirty {
		e.dirty[j] = -1
	}
	e.minDirty = m
	e.tree = newCapTree(m)
	e.loadsBuf = make([]float64, m)
	e.dirtyPos = make([]int, 0, m)
	e.dirtyTheta = make([]float64, 0, m)
	e.dirtyIdx = make([]int, m)
}

// initPlacement runs the initial placement pass in placement order:
// every machine state is final-so-far, so aggregate tests (one policy
// Select per task) suffice. On ErrInfeasible the engine is left in the
// fresh solve's failure state.
func (e *Engine) initPlacement() error {
	for i, id := range e.sorted {
		chosen := e.selectPlace(id)
		if err := e.takeProbeErr(); err != nil {
			return err
		}
		if chosen < 0 {
			for _, rest := range e.sorted[i:] {
				e.assign[rest], e.assignPub[rest] = -1, -1
			}
			e.failID = int(id)
			return ErrInfeasible
		}
		e.assign[id] = int32(chosen)
		e.assignPub[id] = chosen
		e.place(chosen, id)
	}
	return nil
}

// takeProbeErr returns and clears the first exact-test error recorded by
// a constrained-deadline probe during the current pass (nil otherwise).
func (e *Engine) takeProbeErr() error {
	err := e.probeErr
	e.probeErr = nil
	return err
}

// LastOpStats reports how the engine executed its most recent mutation.
func (e *Engine) LastOpStats() OpStats { return e.stats }

// less is the engine's placement order on task ids. For admDBF it is
// dbf.FirstFit's stable sort made strict — density descending (the same
// float comparison), deadline ascending, then arrival id, which is
// exactly the tie-break a stable sort of ids gives.
func (e *Engine) less(a, b int32) bool {
	if !e.ordered {
		return a < b
	}
	if e.kind == admDBF {
		if da, db := e.dens[a], e.dens[b]; da != db {
			return da > db
		}
		if e.dl[a] != e.dl[b] {
			return e.dl[a] < e.dl[b]
		}
		return a < b
	}
	return partition.TaskLessUtilDesc(e.tasks, int(a), int(b))
}

// fitsAgg answers the admission query for task id on machine j against
// the machine's current aggregates — character-for-character the
// partition solver's fast paths, so both round identically.
func (e *Engine) fitsAgg(j int, id int32) bool {
	u := e.utils[id]
	speed := e.speeds[j]
	mc := &e.machs[j]
	switch e.kind {
	case admEDF:
		return mc.load()+u <= speed
	case admLL:
		return mc.load()+u <= sched.LiuLaylandBound(len(mc.placed)+1)*speed
	case admDBF:
		return e.fitsDBF(j, id, len(mc.placed))
	default: // admHyperbolic
		if speed <= 0 {
			return false
		}
		return mc.prod()*(u/speed+1) <= 2
	}
}

// prefixLen returns how many of machine j's placed tasks come strictly
// before placement-order position at; the machine's exact state there is
// the matching prefix of its cumulative folds. Placed lists are
// position-ordered (SelfCheck enforces it), so "pos < at" holds on a
// prefix of the list and a binary search finds its end. Mid-mutation a
// removed or re-ranked task can sit out of order, but at or past the
// edit point, so the predicate is still a prefix for the edit-point
// query that truncates its machine. A position before the machine's
// first placement answers without the search (a head refusal asks every
// machine that).
func (e *Engine) prefixLen(j, at int) int {
	placed, pos := e.machs[j].placed, e.pos
	if len(placed) == 0 || int(pos[placed[0]]) >= at {
		return 0
	}
	lo, hi := 1, len(placed)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(pos[placed[mid]]) < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fitsAt answers the admission query for task id on an untouched machine
// j as of placement-order position at, reading the machine's historical
// state from its cumulative folds. Same expressions as fitsAgg.
func (e *Engine) fitsAt(j int, id int32, at int) bool {
	u := e.utils[id]
	speed := e.speeds[j]
	mc := &e.machs[j]
	x := e.prefixLen(j, at)
	var load float64
	if x > 0 {
		load = mc.cum[x-1]
	}
	switch e.kind {
	case admEDF:
		return load+u <= speed
	case admLL:
		return load+u <= sched.LiuLaylandBound(x+1)*speed
	case admDBF:
		return e.fitsDBF(j, id, x)
	default: // admHyperbolic
		if speed <= 0 {
			return false
		}
		prod := 1.0
		if x > 0 {
			prod = mc.cumProd[x-1]
		}
		return prod*(u/speed+1) <= 2
	}
}

// place appends task id to machine j's fold. The caller has already
// established admission and (during replays) journaled j.
func (e *Engine) place(j int, id int32) {
	mc := &e.machs[j]
	newLoad := mc.load() + e.utils[id]
	if e.kind == admDBF {
		// Fold the density-tier aggregates before appending (placeDBF
		// reads the pre-append folds).
		e.placeDBF(j, id)
	}
	mc.placed = append(mc.placed, id)
	mc.cum = append(mc.cum, newLoad)
	if e.kind == admHyperbolic {
		mc.cumProd = append(mc.cumProd, mc.prod()*(e.utils[id]/e.speeds[j]+1))
	}
	if e.treeOK {
		e.tree.set(e.machPos[j], e.nextCap(j))
	}
	if e.dirty[j] == e.epoch {
		// Refresh the machine's cached threshold in place (same value
		// nextCap computes, reusing newLoad) — this runs once per
		// placement during replays.
		di := e.dirtyIdx[j]
		s := e.speeds[j]
		var th float64
		switch e.kind {
		case admEDF:
			th = s - newLoad + capSlack(s, newLoad)
		case admDBF:
			// The DBF admission's only utilization-shaped necessary
			// condition is FeasibleEDF's pre-check load+u ≤ s·(1+1e-12), so
			// that is the capacity the threshold over-estimates: skipping on
			// cap < u then exactly matches the pre-check rejection.
			th = s*(1+1e-12) - newLoad + capSlack(s, newLoad)
		case admLL:
			th = sched.LiuLaylandBound(len(mc.placed)+1)*s - newLoad + capSlack(s, newLoad)
		default: // admHyperbolic; s > 0 by construction
			th = s*(2/mc.prod()-1) + capSlack(s, newLoad)
		}
		e.dirtyTheta[di] = th
		if di < e.pmaxN {
			e.pmaxN = di
		}
	}
}

// nextCap is machine j's capacity for one more task, slack-inflated for
// the capacity tree (see capTree).
func (e *Engine) nextCap(j int) float64 {
	s := e.speeds[j]
	mc := &e.machs[j]
	switch e.kind {
	case admEDF:
		return s - mc.load() + capSlack(s, mc.load())
	case admDBF:
		// Utilization keys against FeasibleEDF's pre-check capacity
		// s·(1+1e-12): a tree entry below u means load+u lands above the
		// pre-check tolerance, a conclusive (false, nil) DBF rejection —
		// never an error, because the pre-check runs first. (Density-based
		// keys would be unsound: density sums above the speed can still be
		// exactly feasible, so they would skip admissible machines and
		// break first-fit fidelity.)
		return s*(1+1e-12) - mc.load() + capSlack(s, mc.load())
	case admLL:
		return sched.LiuLaylandBound(len(mc.placed)+1)*s - mc.load() + capSlack(s, mc.load())
	default: // admHyperbolic
		if s <= 0 {
			return math.Inf(-1)
		}
		return s*(2/mc.prod()-1) + capSlack(s, mc.load())
	}
}

func (e *Engine) ensureTree() {
	if e.treeOK {
		return
	}
	for pp, j := range e.machIdx {
		e.tree.set(pp, e.nextCap(j))
	}
	e.treeOK = true
}

// firstFitAgg finds the first-fit machine for task id against current
// aggregates, using the capacity tree with exact re-verification at each
// candidate. Decisions are identical to a linear fitsAgg scan.
func (e *Engine) firstFitAgg(id int32) int {
	e.ensureTree()
	u := e.utils[id]
	from := 0
	for {
		pp := e.tree.firstAtLeast(u, from)
		if pp < 0 {
			return -1
		}
		j := e.machIdx[pp]
		if e.fitsAgg(j, id) {
			return j
		}
		from = pp + 1
	}
}

// selectPlace asks the policy for task id's machine against current
// aggregates — the local decision every non-replay placement makes
// (initial placement, tail admits, local WCET re-admission). Under
// FirstFitSorted and FirstFitArrival this is exactly the capacity-tree
// probe (firstFitAgg), so those engines behave identically to the
// pre-Policy orders; replayFrom never consults the policy because
// suffix replay is defined only for the ordered (first-fit) policy.
func (e *Engine) selectPlace(id int32) int { return e.pol.Select(View{e: e}, id) }

// enterOp / exitOp bracket every public mutation. When the outermost
// mutation of a PeriodicRepartition engine commits, exitOp counts it
// and, on every repartEvery-th commit, folds accumulated drift back by
// planning and applying a full sorted-first-fit repartition. Nested
// public calls (the all-or-nothing batch undo path calls Remove) never
// fire the hook mid-operation, and a failed repartition (infeasible
// target) is dropped: the engine's own state is feasible regardless,
// and the next window retries. exitOp reports whether a repartition
// was applied, so callers re-snapshot their Result only when the hook
// actually moved tasks — the common no-hook admit path must not pay a
// second O(m) snapshot.
func (e *Engine) enterOp() { e.hookDepth++ }

func (e *Engine) exitOp(mutated bool) bool {
	e.hookDepth--
	if !mutated || e.hookDepth != 0 || e.repartEvery <= 0 {
		return false
	}
	e.repartCnt++
	if e.repartCnt < e.repartEvery {
		return false
	}
	e.repartCnt = 0
	if pl, err := e.PlanRepartition(); err == nil && pl.TargetFeasible {
		e.ApplyRepartition(pl, 0)
		return true
	}
	return false
}

// exitSingle is exitOp for a single-task mutation that answered res, ok
// and err: it re-snapshots res past an applied repartition.
func (e *Engine) exitSingle(res partition.Result, ok bool, err error) (partition.Result, bool, error) {
	if e.exitOp(ok && err == nil) {
		res = e.Result()
	}
	return res, ok, err
}

// RepartCount reports the periodic-repartition hook's position in its
// cadence window: mutations committed since the last rebuild. Snapshot
// it alongside PlacedLists and hand it back via Options.RepartCnt, so a
// restored engine fires its next rebuild at the same mutation its
// never-restored twin does. Always 0 for non-repartitioning policies.
func (e *Engine) RepartCount() int { return e.repartCnt }

func (e *Engine) dirtyAt(j int) bool { return e.dirty[j] == e.epoch }

// begin opens a mutation's undo scope.
func (e *Engine) begin(ed edit) {
	e.edTreeOK = e.treeOK
	e.epoch++
	e.minDirty = len(e.machIdx)
	e.jMachs = e.jMachs[:0]
	e.jAssigns = e.jAssigns[:0]
	e.dirtyPos = e.dirtyPos[:0]
	e.dirtyTheta = e.dirtyTheta[:0]
	e.pmax = e.pmax[:0]
	e.pmaxN = 0
	e.ed = ed
}

// commit closes a successful mutation: the journaled pre-mutation state
// buffers return to the arena and the public assignment mirror picks up
// every journaled reassignment.
//
// If the capacity tree was fresh when the mutation began, it is brought
// back to fresh here by re-keying just the journaled machines instead of
// invalidating all m leaves: machines that changed without being
// journaled only ever gained load, so their (over-estimating) entries
// stay sound for the tree's probe-then-verify protocol, while every
// machine whose capacity grew was journaled by makeDirty or splice.
func (e *Engine) commit() {
	refresh := e.edTreeOK && !e.treeOK
	for i := range e.jMachs {
		if refresh {
			j := e.jMachs[i].j
			e.tree.set(e.machPos[j], e.nextCap(j))
		}
		e.recycleMach(e.jMachs[i].mc)
		e.jMachs[i] = machSnap{}
	}
	if refresh {
		e.treeOK = true
	}
	e.jMachs = e.jMachs[:0]
	for i := range e.jAssigns {
		id := e.jAssigns[i].id
		e.assignPub[id] = int(e.assign[id])
	}
	e.jAssigns = e.jAssigns[:0]
	e.ed = edit{}
}

// makeDirty journals machine j and truncates its placement to the exact
// state it had before placement-order position at; the truncated tasks
// all lie in the suffix being replayed (still assigned to j, which is
// now marked dirty — exactly how the replay recognizes them) and will
// be re-placed, possibly elsewhere, when the dense walk reaches them.
func (e *Engine) makeDirty(j, at int) {
	e.truncate(j, e.prefixLen(j, at))
	e.noteDirty(j)
}

// truncate journals machine j and continues it on fresh arena copies of
// its first x placements and their folds, returning the journaled
// (pre-truncation) placed list. The machine's capacity may grow, so the
// capacity tree is marked stale; commit re-keys it from the journal.
func (e *Engine) truncate(j, x int) []int32 {
	mc := &e.machs[j]
	e.jMachs = append(e.jMachs, machSnap{j: j, mc: *mc})
	nm := e.grabMach()
	nm.placed = append(nm.placed, mc.placed[:x]...)
	nm.cum = append(nm.cum, mc.cum[:x]...)
	if e.kind == admHyperbolic {
		nm.cumProd = append(nm.cumProd, mc.cumProd[:x]...)
	}
	if e.kind == admDBF {
		nm.cumDens = append(nm.cumDens, mc.cumDens[:x]...)
		nm.cumNum = append(nm.cumNum, mc.cumNum[:x]...)
		nm.cumInvP = append(nm.cumInvP, mc.cumInvP[:x]...)
		nm.cumMaxD = append(nm.cumMaxD, mc.cumMaxD[:x]...)
	}
	old := mc.placed
	*mc = nm
	e.treeOK = false
	return old
}

// noteDirty registers machine j as dirtied this epoch: marks its epoch,
// lowers minDirty, and inserts its scan position and threshold into the
// ascending dirtyPos/dirtyTheta arrays (few entries; linear shift,
// re-pointing dirtyIdx for each shifted machine).
func (e *Engine) noteDirty(j int) {
	e.dirty[j] = e.epoch
	pp := e.machPos[j]
	if pp < e.minDirty {
		e.minDirty = pp
	}
	di := len(e.dirtyPos)
	e.dirtyPos = append(e.dirtyPos, 0)
	e.dirtyTheta = append(e.dirtyTheta, 0)
	e.pmax = append(e.pmax, 0)
	for di > 0 && e.dirtyPos[di-1] > pp {
		e.dirtyPos[di] = e.dirtyPos[di-1]
		e.dirtyTheta[di] = e.dirtyTheta[di-1]
		e.dirtyIdx[e.machIdx[e.dirtyPos[di]]] = di
		di--
	}
	e.dirtyPos[di] = pp
	e.dirtyTheta[di] = e.nextCap(j)
	e.dirtyIdx[j] = di
	if di < e.pmaxN {
		e.pmaxN = di
	}
}

// preMax returns the largest inflated one-more-task capacity over the
// first lim entries of the dirty set, i.e. over every dirtied machine
// scanned before dirtyPos[lim] (-Inf when lim is 0). No task with a
// larger utilization can be admitted by any of those machines, so the
// replay collapses "scan the dirtied prefix" to this one comparison.
// Cascades dirty machines in ascending scan order and re-place onto the
// newest one, so the watermark almost always sits at the tail and the
// amortized cost is O(1) per query. (Keeping pmax exact — invalidating
// on every threshold refresh — measures ~3.5x faster end-to-end than a
// stale-upper-bound variant: the initial post-truncation thresholds are
// large, and freezing them into pmax makes the skip guard pass
// spuriously for most stationary tasks.)
func (e *Engine) preMax(lim int) float64 {
	if e.pmaxN < lim {
		return e.preMaxSlow(lim)
	}
	if lim <= 0 {
		return negInf
	}
	return e.pmax[lim-1]
}

// negInf hoists math.Inf(-1) so preMax stays within the inlining budget.
var negInf = math.Inf(-1)

// preMaxSlow extends the prefix-max watermark up to lim (> pmaxN ≥ 0 by
// the fast-path guard). Split out of preMax so the watermark-already-
// valid fast path inlines at call sites.
func (e *Engine) preMaxSlow(lim int) float64 {
	mt := negInf
	if e.pmaxN > 0 {
		mt = e.pmax[e.pmaxN-1]
	}
	for i := e.pmaxN; i < lim; i++ {
		if th := e.dirtyTheta[i]; th > mt {
			mt = th
		}
		e.pmax[i] = mt
	}
	e.pmaxN = lim
	return e.pmax[lim-1]
}

// firstDirtyGE returns the first dirty-set index below lim whose cached
// threshold is at least u. Prefix maxima are non-decreasing and the
// first index where the prefix max reaches u is exactly the first index
// where a threshold does, so this is a binary search over pmax instead
// of a linear threshold scan. The caller must have just observed
// preMax(lim) ≥ u, which both validates pmax[:lim] and guarantees a hit.
func (e *Engine) firstDirtyGE(u float64, lim int) int {
	lo, hi := 0, lim-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.pmax[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (e *Engine) journalAssign(id int32) {
	e.jAssigns = append(e.jAssigns, assignSnap{id: id, mach: e.assign[id]})
}

// recomputePos refreshes pos (task id → placement position) for
// sorted[from:]; every edit of sorted runs through here with from at or
// before the first changed position.
func (e *Engine) recomputePos(from int) {
	pos, sorted := e.pos, e.sorted
	for i := from; i < len(sorted); i++ {
		pos[sorted[i]] = int32(i)
	}
}

// replayFrom re-runs first-fit for sorted[k:] after a structural edit at
// position k, returning the id of the first unplaceable task or -1 on
// success. The prefix sorted[:k] is untouched by construction, so only
// the suffix can change — and most of it provably cannot:
//
//   - A suffix task still sitting on an untouched machine whose scan
//     position precedes every dirtied machine keeps its placement: the
//     machines it was rejected by and the machine that accepted it are
//     all in states identical to the previous run at that point.
//   - Otherwise, untouched machines that rejected the task before
//     still reject it (same state, same query), so only dirtied
//     machines before its old position plus everything from its old
//     position onward need re-testing; untouched machines are tested
//     against their historical prefix folds.
//
// The walk is dense — every suffix position is examined — because the
// classification needs no auxiliary marking: a task whose machine is
// dirty this epoch is pending re-placement (makeDirty truncated it), a
// task with no machine is a fresh insert, and anything else is a
// stationary candidate dismissed in O(1) when its machine precedes every
// dirtied one. Examining a position that turns out inert is always
// semantics-preserving; only placements change state.
//
// The dominant shape of a cascade is a run: consecutive truncated tasks
// re-folding onto the same dirtied machine, with every earlier dirtied
// machine too full to poach them. The run fast path fuses that case —
// one threshold comparison against the frozen prefix-max of earlier
// dirtied thresholds (their state cannot change while the run only
// appends to its own machine), the exact admission predicate on locally
// carried aggregates, and the fold append. No journaling (the
// assignment is unchanged), no threshold refresh (flushed once when the
// run breaks). Anything that falls out of the pattern — a poachable
// task, a rejection, another machine's task — flushes the run and takes
// the general path, which re-derives the decision from scratch, so
// decisions are byte-identical to the plain linear loop.
//
// Machines are journaled and truncated the first time the replay
// actually changes them, which both bounds the work and provides the
// undo log for rollback.
//
// On a failing engine every task from the failure position on is
// unplaced, so an edit past that position changes nothing placed: the
// failure stands and nothing is replayed. From an earlier position the
// formerly failed suffix replays as fresh inserts.
func (e *Engine) replayFrom(k int) int {
	if e.failID >= 0 && int(e.pos[e.failID]) < k {
		return e.failID
	}
	m := len(e.machIdx)
	n := len(e.sorted)
	sorted, assign, utils := e.sorted, e.assign, e.utils
	kind := e.kind
	visited := 0

	// The edited task of an opUpdate must never ride a fast path: its
	// utilization changed, so its previous placement proves nothing.
	updID := int32(-1)
	if e.ed.op == opUpdate {
		updID = int32(e.ed.id)
	}

	// Active run: truncated tasks re-folding onto machine runF (-2 when
	// none; -1 would collide with a fresh task's unassigned machine).
	// Run fusion is disabled for admDBF — the fused inner loop appends
	// only the utilization folds (no DBF folds), and
	// a DBF admission is not a pure fold over the carried locals anyway —
	// so runF stays -2 and every placement takes the general path.
	runF := -2
	fuse := kind != admDBF
	var mcF *mach
	var sF, loadF, prodF, preMaxF float64

	for i := k; i < n; i++ {
		id := sorted[i]
		old := int(assign[id])
		if old == runF && id != updID {
			// Fused inner loop: consume the whole run of consecutive
			// truncated tasks re-folding onto runF with the fold slice
			// headers held in locals, and write them back before anything
			// else can observe the machine.
			plF, cumF, cpF := mcF.placed, mcF.cum, mcF.cumProd
			for {
				u := utils[id]
				if u <= preMaxF { // an earlier dirtied machine may take it
					break
				}
				ok := false
				var newLoad, newProd float64
				switch kind {
				case admEDF:
					newLoad = loadF + u
					ok = newLoad <= sF
				case admLL:
					newLoad = loadF + u
					ok = newLoad <= sched.LiuLaylandBound(len(plF)+1)*sF
				default: // admHyperbolic
					newProd = prodF * (u/sF + 1)
					newLoad = loadF + u
					ok = newProd <= 2
				}
				if !ok {
					break
				}
				plF = append(plF, id)
				cumF = append(cumF, newLoad)
				if kind == admHyperbolic {
					cpF = append(cpF, newProd)
				}
				loadF, prodF = newLoad, newProd
				visited++
				i++
				if i >= n {
					break
				}
				id = sorted[i]
				old = int(assign[id])
				if old != runF || id == updID {
					break
				}
			}
			mcF.placed, mcF.cum, mcF.cumProd = plF, cumF, cpF
			if i >= n {
				break
			}
			if old == runF && id != updID {
				// The run machine (or an earlier dirtied one) now answers
				// differently for id: the run is over, re-derive below.
				e.flushRun(runF)
				runF = -2
			}
		}
		u := utils[id]
		if old >= 0 && !e.dirtyAt(old) {
			oldP := e.machPos[old]
			if oldP < e.minDirty {
				continue // no machine it ever saw has changed
			}
			moved := -1
			if diLim := e.dirtyBefore(oldP); diLim > 0 && u <= e.preMax(diLim) {
				for di := e.firstDirtyGE(u, diLim); di < diLim; di++ {
					if u <= e.dirtyTheta[di] {
						if j := e.machIdx[e.dirtyPos[di]]; e.fitsAgg(j, id) {
							moved = j
							break
						}
					}
				}
			}
			if moved < 0 {
				continue // stays exactly where it was
			}
			visited++
			if runF >= 0 {
				// makeDirty below may register a machine ahead of the run
				// machine in scan order; the frozen preMaxF would not cover
				// it, so the run cannot survive this placement.
				e.flushRun(runF)
			}
			e.makeDirty(old, i) // drops id (and later entries) from old
			e.journalAssign(id)
			e.assign[id] = int32(moved)
			e.place(moved, id)
			if fuse {
				runF = moved
				mcF = &e.machs[moved]
				sF = e.speeds[moved]
				loadF = mcF.load()
				prodF = mcF.prod()
				preMaxF = e.preMax(e.dirtyIdx[moved])
			}
			continue
		}
		visited++
		// Fresh task (old == -1) or its machine was truncated: full
		// first-fit scan, skipping untouched machines its previous run
		// already rejected. The skip is void for the edited task itself —
		// its utilization changed, so old rejections prove nothing — and
		// for a task that was never placed. Below the skip horizon only
		// dirtied machines can matter, so only they are probed there —
		// and usually not even they: a truncated task's machine sits at a
		// known dirty slot, every dirtied machine before it occupies the
		// slots below, and one preMax comparison rules them all out.
		skipBefore := -1
		diLim := 0
		if old >= 0 && id != updID {
			skipBefore = e.machPos[old]
			if e.dirtyAt(old) {
				diLim = e.dirtyIdx[old]
			} else {
				diLim = e.dirtyBefore(skipBefore)
			}
		}
		chosen := -1
		start := 0
		if skipBefore > 0 {
			if diLim > 0 && u <= e.preMax(diLim) {
				for di := e.firstDirtyGE(u, diLim); di < diLim; di++ {
					if u <= e.dirtyTheta[di] {
						if j := e.machIdx[e.dirtyPos[di]]; e.fitsAgg(j, id) {
							chosen = j
							break
						}
					}
				}
			}
			start = skipBefore
		}
		if chosen < 0 {
			for pp := start; pp < m; pp++ {
				j := e.machIdx[pp]
				if e.dirtyAt(j) {
					if u <= e.dirtyTheta[e.dirtyIdx[j]] && e.fitsAgg(j, id) {
						chosen = j
						break
					}
				} else if e.fitsAt(j, id, i) {
					chosen = j
					break
				}
			}
		}
		if chosen < 0 {
			e.stats.Visited += visited
			return int(id)
		}
		if !e.dirtyAt(chosen) {
			e.makeDirty(chosen, i)
		}
		if int(e.assign[id]) != chosen {
			e.journalAssign(id)
			e.assign[id] = int32(chosen)
		}
		e.place(chosen, id)
		// Seed the refill run: subsequent tasks truncated off this (now
		// dirtied) machine can fuse until the pattern breaks. preMaxF is
		// computed after any makeDirty above, so it covers every dirtied
		// machine currently ahead of the run machine.
		if runF >= 0 && runF != chosen {
			e.flushRun(runF)
		}
		if fuse {
			runF = chosen
			mcF = &e.machs[chosen]
			sF = e.speeds[chosen]
			loadF = mcF.load()
			prodF = mcF.prod()
			preMaxF = e.preMax(e.dirtyIdx[chosen])
		}
	}
	if runF >= 0 {
		e.flushRun(runF)
	}
	e.stats.Visited += visited
	return -1
}

// flushRun writes a broken run's deferred threshold refresh: the run
// machine's cached theta and the prefix-max watermark, exactly as the
// final fused place would have left them.
func (e *Engine) flushRun(f int) {
	di := e.dirtyIdx[f]
	e.dirtyTheta[di] = e.nextCap(f)
	if di < e.pmaxN {
		e.pmaxN = di
	}
}

// dirtyBefore returns how many dirtied machines occupy scan positions
// strictly before pp (dirtyPos is ascending; inlined binary search).
func (e *Engine) dirtyBefore(pp int) int {
	lo, hi := 0, len(e.dirtyPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.dirtyPos[mid] < pp {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// settle closes a mutation whose placement pass reported
// failID (-1: every task placed); exclude is the id of a removal in
// flight, -1 otherwise. A probe error or a refusal rolls back, the
// refusal answering with the fresh solve's witness, unless force commits
// the refusal as that failure state.
func (e *Engine) settle(failID, exclude int, force bool) (partition.Result, bool, error) {
	if perr := e.takeProbeErr(); perr != nil {
		e.rollback()
		return partition.Result{}, false, fmt.Errorf("online: %w", perr)
	}
	if failID >= 0 && !force {
		at := len(e.sorted)
		if e.ordered {
			at = int(e.pos[failID])
		}
		opID := -1 // the op task whose witness entry a Summary reports
		if e.ed.op == opInsert || e.ed.op == opUpdate {
			opID = e.ed.id
		}
		res := e.failResult(failID, at, exclude, opID)
		e.rollback()
		return res, false, nil
	}
	if failID >= 0 {
		e.hold(failID)
	}
	e.failID = failID
	// Commit before compact: the mirror refresh keys off journaled
	// (pre-renumber) ids, and the capacity tree is machine-keyed, so id
	// renumbering cannot invalidate it.
	e.commit()
	if exclude >= 0 {
		e.compact(exclude)
	}
	return e.Result(), failID < 0, nil
}

// hold turns the in-flight refusal at task failID into the failure state
// failResult describes: every machine keeps only its placements before
// failID's position (dirtied machines hold nothing later already; the
// others are truncated, journaled like any replay edit), and failID and
// every later task are unplaced.
func (e *Engine) hold(failID int) {
	at := int(e.pos[failID])
	for j := range e.machs {
		if x := e.prefixLen(j, at); x < len(e.machs[j].placed) {
			e.truncate(j, x)
		}
	}
	for _, id := range e.sorted[at:] {
		if e.assign[id] >= 0 {
			e.journalAssign(id)
			e.assign[id] = -1
		}
	}
}

// failResult builds the partition.Result a fresh Solve over the
// candidate multiset reports when task failID, at placement-order
// position at, cannot be placed: the prefix before the failure keeps its
// (byte-identical) assignment, the failing task and everything after it
// is unplaced, and per-machine loads are the folds as of the failure
// point. Under a local policy at is the end of the order, so only the
// failing task is unplaced. exclude ≥ 0 compacts task ids for a removal
// in flight (fresh solves of the shrunken set number tasks without it).
// A task id past the placement arrays (an admission refused before its
// insertion) is unplaced.
//
// The result is freshly allocated, except in a Summary call (brief),
// which gets no assignment, loads in engine scratch, and op task opID's
// entry in briefMach.
func (e *Engine) failResult(failID, at, exclude, opID int) partition.Result {
	res := partition.Result{FailedTask: failID, Alpha: e.alpha}
	if exclude >= 0 && failID > exclude {
		res.FailedTask--
	}
	loads := e.loadsBuf
	if !e.brief {
		loads = make([]float64, len(e.p))
	}
	for j := range e.machs {
		if e.dirtyAt(j) {
			loads[j] = e.machs[j].load()
		} else {
			loads[j] = e.foldAt(j, at)
		}
	}
	res.Loads = loads
	if e.brief {
		e.briefMach = e.witnessEntry(opID, failID, at)
		return res
	}
	as := make([]int, 0, len(e.tasks))
	for id := range e.tasks {
		if id != exclude {
			as = append(as, e.witnessEntry(id, failID, at))
		}
	}
	res.Assignment = as
	return res
}

// witnessEntry is task id's entry in failResult's assignment: its
// machine when it is placed before the failure position at, else -1.
func (e *Engine) witnessEntry(id, failID, at int) int {
	if id >= 0 && id < len(e.pos) && id != failID && int(e.pos[id]) < at {
		return int(e.assign[id])
	}
	return -1
}

// foldAt is machine j's utilization load just before placement-order
// position at: the matching prefix of its cumulative fold.
func (e *Engine) foldAt(j, at int) float64 {
	if x := e.prefixLen(j, at); x > 0 {
		return e.machs[j].cum[x-1]
	}
	return 0
}

// rollback restores the pre-mutation state from the undo journal. The
// abandoned working buffers of every journaled machine return to the
// arena.
func (e *Engine) rollback() {
	refresh := e.edTreeOK && !e.treeOK
	for i := range e.jMachs {
		j := e.jMachs[i].j
		e.recycleMach(e.machs[j])
		e.machs[j] = e.jMachs[i].mc
		e.jMachs[i] = machSnap{}
		if refresh {
			e.tree.set(e.machPos[j], e.nextCap(j))
		}
	}
	if refresh {
		e.treeOK = true
	}
	e.jMachs = e.jMachs[:0]
	for i := len(e.jAssigns) - 1; i >= 0; i-- {
		e.assign[e.jAssigns[i].id] = e.jAssigns[i].mach
	}
	e.jAssigns = e.jAssigns[:0]
	switch e.ed.op {
	case opInsert:
		k := int(e.pos[e.ed.id])
		e.sorted = append(e.sorted[:k], e.sorted[k+1:]...)
		e.tasks = e.tasks[:len(e.tasks)-1]
		e.utils = e.utils[:len(e.utils)-1]
		e.assign = e.assign[:len(e.assign)-1]
		e.assignPub = e.assignPub[:len(e.assignPub)-1]
		e.pos = e.pos[:len(e.pos)-1]
		if e.kind == admDBF {
			e.dl = e.dl[:len(e.dl)-1]
			e.dens = e.dens[:len(e.dens)-1]
		}
		e.recomputePos(k)
	case opRemove:
		e.insertSorted(int32(e.ed.id), e.ed.kOld)
		e.recomputePos(e.ed.kOld)
	case opUpdate:
		e.tasks[e.ed.id].WCET = e.ed.oldWCET
		e.utils[e.ed.id] = e.ed.oldUtil
		if e.kind == admDBF {
			e.dens[e.ed.id] = e.ed.oldDens
		}
		cur := int(e.pos[e.ed.id])
		e.sorted = append(e.sorted[:cur], e.sorted[cur+1:]...)
		e.insertSorted(int32(e.ed.id), e.ed.kOld)
		if cur < e.ed.kOld {
			e.recomputePos(cur)
		} else {
			e.recomputePos(e.ed.kOld)
		}
	case opBatchInsert:
		n0 := int32(e.ed.id)
		w := 0
		for _, id := range e.sorted {
			if id < n0 {
				e.sorted[w] = id
				w++
			}
		}
		e.sorted = e.sorted[:w]
		e.tasks = e.tasks[:e.ed.id]
		e.utils = e.utils[:e.ed.id]
		e.assign = e.assign[:e.ed.id]
		e.assignPub = e.assignPub[:e.ed.id]
		e.pos = e.pos[:e.ed.id]
		if e.kind == admDBF {
			e.dl = e.dl[:e.ed.id]
			e.dens = e.dens[:e.ed.id]
		}
		e.recomputePos(e.ed.kOld)
	}
	e.ed = edit{}
}

func (e *Engine) insertSorted(id int32, k int) {
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[k+1:], e.sorted[k:])
	e.sorted[k] = id
}

// Admit offers one more task to the engine. On acceptance the task joins
// the set with the id Len()-1 had before the call (arrival ids are
// stable append order) and res is the engine's new state; on rejection
// the engine is unchanged and res is the failed fresh-solve witness over
// the candidate set. res aliases no engine scratch on rejection; on
// acceptance it follows Result's aliasing rules.
//
// The witness's n-entry assignment is what the differential tests and
// the repository benchmark's replay compare with a fresh solve, so Admit
// always builds it (failResult), even when the refusal itself is
// answered without inserting (refuseEarly). A caller that reads only
// the verdict, the loads and the task's own machine — a served session —
// calls AdmitSummary, which builds no assignment.
func (e *Engine) Admit(t task.Task) (res partition.Result, admitted bool, err error) {
	return e.admit(t, false)
}

// admit is Admit; force commits a refusal as the failure state.
func (e *Engine) admit(t task.Task, force bool) (partition.Result, bool, error) {
	if err := t.Validate(); err != nil {
		return partition.Result{}, false, fmt.Errorf("online: %w", err)
	}
	// On a constrained-deadline engine an implicit task is D = P.
	e.enterOp()
	return e.exitSingle(e.admitOne(t, t.Period, force))
}

// forcible refuses force on engines that cannot hold a failure state:
// local policies place on arrival and never revisit a placement.
func (e *Engine) forcible(force bool) error {
	if force && !e.ordered {
		return fmt.Errorf("online: force needs a first_fit_sorted engine, not policy %q", e.pol.Name())
	}
	return nil
}

// admitOne is the shared single-admit body; the caller has validated t
// (and, for admDBF, the relative deadline d — ignored otherwise).
func (e *Engine) admitOne(t task.Task, d int64, force bool) (res partition.Result, admitted bool, err error) {
	id := int32(len(e.tasks))
	e.tasks = append(e.tasks, t)
	e.utils = append(e.utils, t.Utilization())
	if e.kind == admDBF {
		e.dl = append(e.dl, d)
		e.dens = append(e.dens, float64(t.WCET)/float64(d))
	}
	k := len(e.sorted)
	if e.ordered {
		k = sort.Search(len(e.sorted), func(i int) bool { return e.less(id, e.sorted[i]) })
	}
	if !force && e.ordered && e.kind != admDBF {
		if res, ok := e.refuseEarly(id, k); ok {
			e.tasks, e.utils = e.tasks[:id], e.utils[:id]
			return res, false, nil
		}
	}
	e.assign = append(e.assign, -1)
	e.assignPub = append(e.assignPub, -1)
	e.pos = append(e.pos, 0)
	e.insertSorted(id, k)
	e.recomputePos(k)
	e.begin(edit{op: opInsert, id: int(id)})

	var failID int
	if k == len(e.sorted)-1 && e.failID < 0 {
		// End of the placement order: every machine's current aggregate
		// is its state at this point, so the policy selects against live
		// state — for the first-fit policies a single O(log m) capacity
		// query (plus exact verification).
		e.stats = OpStats{Tail: true, ReplayFrom: -1, BatchSize: 1}
		failID = int(id)
		if chosen := e.selectPlace(id); chosen >= 0 {
			failID = -1
			e.journalAssign(id)
			e.assign[id] = int32(chosen)
			e.place(chosen, id)
		}
	} else {
		e.stats = OpStats{ReplayFrom: k, BatchSize: 1}
		failID = e.replayFrom(k)
	}
	return e.settle(failID, -1, force)
}

// refuseEarly answers an ordered implicit-deadline admission of task id
// — appended to tasks and utils, not yet inserted — at placement-order
// position k when the fresh solve's refusal is known without inserting:
//
//   - a failure state stands before k, so the refusal is that failure
//     (an edit past the failure position changes nothing placed);
//   - no machine's state before k admits id, so the fresh solve fails at
//     id itself: the prefix before k places exactly as it does now.
//
// ok is false when neither holds. A machine that admits id against its
// live aggregates admits it before k too (every prefix fold is at most
// the live one), so the O(log m) capacity-tree probe settles most
// admissions that place before the O(m log n) prefix scan runs; tail
// admissions skip both, since the tail path answers them in O(log m)
// with an O(1) insertion.
func (e *Engine) refuseEarly(id int32, k int) (res partition.Result, ok bool) {
	// An empty scope: nothing is journaled, and no machine reads as
	// dirtied by the previous mutation.
	e.begin(edit{})
	e.stats = OpStats{ReplayFrom: -1, BatchSize: 1}
	if e.failID >= 0 && int(e.pos[e.failID]) < k {
		return e.failResult(e.failID, int(e.pos[e.failID]), -1, int(id)), true
	}
	if k == len(e.sorted) || e.firstFitAgg(id) >= 0 {
		return res, false
	}
	for j := range e.machs {
		if e.fitsAt(j, id, k) {
			return res, false
		}
	}
	return e.failResult(int(id), k, -1, int(id)), true
}

// Remove deletes task id (later ids shift down by one, mirroring the
// caller's slice semantics). Under the ordered policy the remainder is
// re-placed exactly as a fresh solve would place it; first-fit is not
// monotone under removals, so the shrunken set can fail — in that case
// the engine rolls back, ok is false, and res is the failed fresh-solve
// witness for the shrunken set. Under local policies removal is local
// (the machine's fold is re-closed over the surviving tasks) and always
// succeeds.
func (e *Engine) Remove(id int) (res partition.Result, ok bool, err error) {
	return e.remove(id, false)
}

// remove is Remove; force commits a refusal as the failure state.
func (e *Engine) remove(id int, force bool) (partition.Result, bool, error) {
	e.enterOp()
	return e.exitSingle(e.removeInner(id, force))
}

func (e *Engine) removeInner(id int, force bool) (res partition.Result, ok bool, err error) {
	if id < 0 || id >= len(e.tasks) {
		return partition.Result{}, false, fmt.Errorf("online: Remove task %d out of range [0, %d)", id, len(e.tasks))
	}
	if len(e.tasks) == 1 {
		return partition.Result{}, false, fmt.Errorf("online: cannot remove the last task")
	}
	if !e.ordered {
		// Local removal: close the machine's fold over the survivors.
		// Every admission aggregate shrinks, so feasibility is preserved
		// and the operation always commits. sorted is the identity in
		// this mode, so the order edit is a plain splice too.
		e.begin(edit{op: opNone})
		e.stats = OpStats{Tail: true, ReplayFrom: -1}
		e.sorted = append(e.sorted[:id], e.sorted[id+1:]...)
		e.recomputePos(id)
		e.splice(int(e.assign[id]), int32(id))
		return e.settle(-1, id, false)
	}

	o := int(e.assign[id])
	k := int(e.pos[id])
	e.begin(edit{op: opRemove, id: id, kOld: k})
	e.stats = OpStats{ReplayFrom: k}
	e.sorted = append(e.sorted[:k], e.sorted[k+1:]...)
	e.recomputePos(k)
	if o >= 0 {
		e.makeDirty(o, k) // drops id and every later entry on its machine
	}
	return e.settle(e.replayFrom(k), id, force)
}

// UpdateWCET changes task id's worst-case execution time. Under the
// ordered policy the task is re-ranked and the affected suffix
// replayed, leaving the engine byte-identical to a fresh solve over the
// updated multiset; on infeasibility the change is rolled back (ok
// false) and res is the failed fresh-solve witness for the updated set.
// Under local policies the task is re-admitted against current
// aggregates via the policy's Select; if no machine fits it the change
// rolls back likewise.
func (e *Engine) UpdateWCET(id int, wcet int64) (res partition.Result, ok bool, err error) {
	return e.updateWCET(id, wcet, false)
}

// updateWCET is UpdateWCET; force commits a refusal as the failure state.
func (e *Engine) updateWCET(id int, wcet int64, force bool) (partition.Result, bool, error) {
	e.enterOp()
	return e.exitSingle(e.updateWCETInner(id, wcet, force))
}

func (e *Engine) updateWCETInner(id int, wcet int64, force bool) (res partition.Result, ok bool, err error) {
	if id < 0 || id >= len(e.tasks) {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET task %d out of range [0, %d)", id, len(e.tasks))
	}
	if wcet <= 0 {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET wcet %d must be positive", wcet)
	}
	if e.kind == admDBF && wcet > e.dl[id] {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET wcet %d exceeds deadline %d (constrained model)", wcet, e.dl[id])
	}
	if wcet == e.tasks[id].WCET {
		return e.Result(), e.failID < 0, nil
	}
	o := e.assign[id]
	kOld := int(e.pos[id])
	ed := edit{op: opUpdate, id: id, kOld: kOld, oldWCET: e.tasks[id].WCET, oldUtil: e.utils[id]}
	if e.kind == admDBF {
		ed.oldDens = e.dens[id]
	}
	e.begin(ed)
	e.tasks[id].WCET = wcet
	e.utils[id] = e.tasks[id].Utilization()
	if e.kind == admDBF {
		e.dens[id] = float64(wcet) / float64(e.dl[id])
	}
	if !e.ordered {
		// Local re-admission: splice the task out of its machine's fold,
		// then re-select against current aggregates via the policy. The
		// placement order (arrival order) is untouched either way.
		e.stats = OpStats{Tail: true, ReplayFrom: -1}
		e.splice(int(o), int32(id))
		e.journalAssign(int32(id))
		failID := id
		if chosen := e.selectPlace(int32(id)); chosen >= 0 {
			failID = -1
			e.assign[id] = int32(chosen)
			e.place(chosen, int32(id))
		}
		return e.settle(failID, -1, false)
	}

	e.sorted = append(e.sorted[:kOld], e.sorted[kOld+1:]...)
	kNew := sort.Search(len(e.sorted), func(i int) bool { return e.less(int32(id), e.sorted[i]) })
	e.insertSorted(int32(id), kNew)
	k := kOld
	if kNew < k {
		k = kNew
	}
	e.stats = OpStats{ReplayFrom: k}
	e.recomputePos(k)
	if o >= 0 {
		e.makeDirty(int(o), k)
	}
	return e.settle(e.replayFrom(k), -1, force)
}

// splice removes task id from machine j's fold locally, journaling j and
// re-closing the cumulative folds over the surviving tasks (local
// policies only; sorted-order removals go through the replay).
func (e *Engine) splice(j int, id int32) {
	x := -1
	for i, pid := range e.machs[j].placed {
		if pid == id {
			x = i
			break
		}
	}
	for _, pid := range e.truncate(j, x)[x+1:] {
		e.place(j, pid)
	}
	e.noteDirty(j)
}

// compact renumbers task ids after a successful removal of r: ids above
// r shift down by one everywhere (tasks, folds, order, assignment).
func (e *Engine) compact(r int) {
	n := len(e.tasks)
	copy(e.tasks[r:], e.tasks[r+1:])
	e.tasks = e.tasks[:n-1]
	copy(e.utils[r:], e.utils[r+1:])
	e.utils = e.utils[:n-1]
	copy(e.assign[r:], e.assign[r+1:])
	e.assign = e.assign[:n-1]
	copy(e.assignPub[r:], e.assignPub[r+1:])
	e.assignPub = e.assignPub[:n-1]
	copy(e.pos[r:], e.pos[r+1:])
	e.pos = e.pos[:n-1]
	if e.kind == admDBF {
		copy(e.dl[r:], e.dl[r+1:])
		e.dl = e.dl[:n-1]
		copy(e.dens[r:], e.dens[r+1:])
		e.dens = e.dens[:n-1]
	}
	if e.failID > r {
		e.failID--
	}
	if r == n-1 {
		return // removed the largest id; nothing to renumber
	}
	r32 := int32(r)
	for i, id := range e.sorted {
		if id > r32 {
			e.sorted[i] = id - 1
		}
	}
	for j := range e.machs {
		for x, id := range e.machs[j].placed {
			if id > r32 {
				e.machs[j].placed[x] = id - 1
			}
		}
	}
}

// Result snapshots the engine's current state, a failure state's
// included. Assignment and Loads alias engine-owned buffers and are only
// valid until the next mutation; use Result.Clone to retain one.
func (e *Engine) Result() partition.Result {
	for j := range e.machs {
		e.loadsBuf[j] = e.machs[j].load()
	}
	return partition.Result{
		Feasible:   e.failID < 0,
		Assignment: e.assignPub,
		FailedTask: e.failID,
		Loads:      e.loadsBuf,
		Alpha:      e.alpha,
	}
}

// Feasible reports whether every resident task is placed: false only
// while the engine holds a failure state.
func (e *Engine) Feasible() bool { return e.failID < 0 }

// Len returns the number of resident tasks.
func (e *Engine) Len() int { return len(e.tasks) }

// Alpha returns the fixed augmentation every decision is made at.
func (e *Engine) Alpha() float64 { return e.alpha }

// PlacementPolicy returns the engine's placement policy.
func (e *Engine) PlacementPolicy() Policy { return e.pol }

// Tasks returns a copy of the resident task multiset in id order.
func (e *Engine) Tasks() task.Set { return e.tasks.Clone() }

// SelfCheck verifies the engine's internal invariants: the placement
// order is a valid permutation sorted by the order relation, positions
// invert it, exactly the tasks before the failure position (all of them
// when feasible) are placed, every placed task sits on exactly one
// machine matching its assignment, placed lists are position-ordered
// (ordered policy), every
// cumulative fold re-derives bit-identically, and every machine's final
// state satisfies its admission bound. It is O(n log n + n·m) and meant
// for tests and debugging, not the hot path.
func (e *Engine) SelfCheck() error {
	n := len(e.tasks)
	if len(e.utils) != n || len(e.assign) != n || len(e.pos) != n || len(e.sorted) != n {
		return fmt.Errorf("online: inconsistent lengths")
	}
	seen := make([]bool, n)
	for i, id := range e.sorted {
		if id < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("online: sorted is not a permutation at %d", i)
		}
		seen[id] = true
		if int(e.pos[id]) != i {
			return fmt.Errorf("online: pos[%d] = %d, want %d", id, e.pos[id], i)
		}
		if i > 0 && !e.less(e.sorted[i-1], id) {
			return fmt.Errorf("online: sorted out of order at %d", i)
		}
	}
	placedOn := make([]int, n)
	for i := range placedOn {
		placedOn[i] = -1
	}
	for j := range e.machs {
		mc := &e.machs[j]
		if len(mc.cum) != len(mc.placed) {
			return fmt.Errorf("online: machine %d fold length mismatch", j)
		}
		load, prod := 0.0, 1.0
		for x, id := range mc.placed {
			if id < 0 || int(id) >= n || placedOn[id] >= 0 {
				return fmt.Errorf("online: task %d multiply placed", id)
			}
			placedOn[id] = j
			if e.ordered && x > 0 && e.pos[mc.placed[x-1]] >= e.pos[id] {
				return fmt.Errorf("online: machine %d placed list out of position order at %d", j, x)
			}
			load += e.utils[id]
			if math.Float64bits(load) != math.Float64bits(mc.cum[x]) {
				return fmt.Errorf("online: machine %d cum[%d] = %v, refold %v", j, x, mc.cum[x], load)
			}
			if e.kind == admHyperbolic {
				prod *= e.utils[id]/e.speeds[j] + 1
				if math.Float64bits(prod) != math.Float64bits(mc.cumProd[x]) {
					return fmt.Errorf("online: machine %d cumProd[%d] mismatch", j, x)
				}
			}
		}
		switch e.kind {
		case admEDF:
			if mc.load() > e.speeds[j] {
				return fmt.Errorf("online: machine %d overloaded: %v > %v", j, mc.load(), e.speeds[j])
			}
		case admLL:
			if len(mc.placed) > 0 && mc.load() > sched.LiuLaylandBound(len(mc.placed))*e.speeds[j] {
				return fmt.Errorf("online: machine %d violates Liu–Layland", j)
			}
		case admHyperbolic:
			if mc.prod() > 2 {
				return fmt.Errorf("online: machine %d violates hyperbolic bound", j)
			}
		}
	}
	at := n // failure position: tasks before it are placed, the rest not
	if e.failID >= 0 {
		at = int(e.pos[e.failID])
	}
	for id := 0; id < n; id++ {
		if (int(e.pos[id]) < at) != (e.assign[id] >= 0) {
			return fmt.Errorf("online: task %d at position %d assigned to %d, failure position %d", id, e.pos[id], e.assign[id], at)
		}
		if placedOn[id] != int(e.assign[id]) {
			return fmt.Errorf("online: task %d assigned to %d but placed on %d", id, e.assign[id], placedOn[id])
		}
		if e.assignPub[id] != int(e.assign[id]) {
			return fmt.Errorf("online: task %d assignPub %d out of sync with assign %d", id, e.assignPub[id], e.assign[id])
		}
	}
	if len(e.assignPub) != n {
		return fmt.Errorf("online: assignPub length %d, want %d", len(e.assignPub), n)
	}
	if e.kind == admDBF {
		if err := e.selfCheckDBF(); err != nil {
			return err
		}
	}
	return nil
}
