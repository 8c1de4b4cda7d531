package arena

import (
	"errors"
	"fmt"
	"time"

	"partfeas/internal/machine"
	"partfeas/internal/online"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// laneOp records one call the lane actually made against its engine —
// the differential tests replay this trace against independently built
// engines and demand byte-identical observable state. Tracing is a test
// hook (World.traceOps); production runs record nothing.
type laneOp struct {
	kind uint8            // one of opFresh, opAdmit, opRemove, opDrop
	t    task.Task        // opFresh (seed task), opAdmit
	id   int              // opRemove: engine id
	plat machine.Platform // opFresh: the sub-platform the engine was built on
}

const (
	opFresh  uint8 = iota // NewEngine with a single seed task
	opAdmit               // Admit(t) that returned admitted=true
	opRemove              // Remove(id) that returned ok=true
	opDrop                // last resident departed; engine discarded
)

// laneTask pairs a resident's stream sequence number with its task.
// The slice index of a laneTask IS its engine id: Admit appends, and a
// successful Remove(id) splices — exactly the engine's own id compaction
// — so the two stay aligned without consulting the engine.
type laneTask struct {
	seq int
	t   task.Task
}

// lane runs one policy over the shared stream. Lanes are mutually
// independent: each owns its engine, bookkeeping and score slices, so a
// worker pool can run any subset concurrently without synchronization.
type lane struct {
	name  string
	pol   online.Policy
	adm   partition.AdmissionTest
	alpha float64

	full  machine.Platform
	up    []bool
	upIdx []int // engine machine index -> full-platform index

	e   *online.Engine
	res []laneTask  // engine id -> resident
	id  map[int]int // seq -> engine id

	prev map[int]int // seq -> full machine index at previous tick end

	traceOn bool
	trace   []laneOp

	// per-tick accumulators, reset by endTick
	offered, admitted, rejected int
	departed, evicted           int
	visited                     int
	lat                         []float64 // per-op wall ns this tick

	offTotal, admTotal int

	scores []TickScore
	lats   []TickLatency
}

func newLane(name string, pol online.Policy, adm partition.AdmissionTest, alpha float64, full machine.Platform, ticks int) *lane {
	l := &lane{
		name: name, pol: pol, adm: adm, alpha: alpha,
		full: full.Clone(),
		up:   make([]bool, len(full)),
		id:   make(map[int]int),
		prev: make(map[int]int),
	}
	for j := range l.up {
		l.up[j] = true
	}
	l.rebuildUpIdx()
	l.scores = make([]TickScore, 0, ticks)
	l.lats = make([]TickLatency, 0, ticks)
	return l
}

func (l *lane) rebuildUpIdx() {
	l.upIdx = l.upIdx[:0]
	for j, u := range l.up {
		if u {
			l.upIdx = append(l.upIdx, j)
		}
	}
}

func (l *lane) subPlatform() machine.Platform {
	p := make(machine.Platform, 0, len(l.upIdx))
	for _, j := range l.upIdx {
		p = append(p, l.full[j])
	}
	return p
}

func (l *lane) record(op laneOp) {
	if l.traceOn {
		l.trace = append(l.trace, op)
	}
}

// apply feeds one stream event to the lane.
func (l *lane) apply(ev Event) error {
	switch ev.Kind {
	case EvMachineDown:
		if !l.up[ev.Machine] {
			return fmt.Errorf("arena: lane %s: machine %d already down", l.name, ev.Machine)
		}
		l.up[ev.Machine] = false
		l.rebuildUpIdx()
		return l.rebuild()
	case EvMachineUp:
		if l.up[ev.Machine] {
			return fmt.Errorf("arena: lane %s: machine %d already up", l.name, ev.Machine)
		}
		l.up[ev.Machine] = true
		l.rebuildUpIdx()
		return l.rebuild()
	case EvDepart:
		return l.depart(ev.Seq)
	case EvAdmit:
		return l.admit(ev.Seq, ev.Task)
	}
	return fmt.Errorf("arena: unknown event kind %v", ev.Kind)
}

func (l *lane) admit(seq int, t task.Task) error {
	l.offered++
	l.offTotal++
	if l.e == nil {
		plat := l.subPlatform()
		start := time.Now()
		e, err := online.NewEngine(task.Set{t}, plat, online.Options{
			Policy: l.pol, Admission: l.adm, Alpha: l.alpha,
		})
		l.lat = append(l.lat, float64(time.Since(start).Nanoseconds()))
		if err != nil {
			if errors.Is(err, online.ErrInfeasible) {
				l.rejected++
				return nil
			}
			return fmt.Errorf("arena: lane %s: %w", l.name, err)
		}
		l.record(laneOp{kind: opFresh, t: t, plat: plat})
		l.e = e
		l.res = append(l.res[:0], laneTask{seq: seq, t: t})
		clear(l.id)
		l.id[seq] = 0
		l.admitted++
		l.admTotal++
		return nil
	}
	start := time.Now()
	_, ok, err := l.e.Admit(t)
	l.lat = append(l.lat, float64(time.Since(start).Nanoseconds()))
	if err != nil {
		return fmt.Errorf("arena: lane %s: admit seq %d: %w", l.name, seq, err)
	}
	l.visited += l.e.LastOpStats().Visited
	if !ok {
		l.rejected++
		return nil
	}
	l.record(laneOp{kind: opAdmit, t: t})
	l.id[seq] = len(l.res)
	l.res = append(l.res, laneTask{seq: seq, t: t})
	l.admitted++
	l.admTotal++
	return nil
}

func (l *lane) depart(seq int) error {
	eid, resident := l.id[seq]
	if !resident {
		return nil // this lane rejected (or already evicted) the arrival
	}
	l.departed++
	if len(l.res) == 1 {
		// Engines refuse to drop their last resident (a task.Set must be
		// non-empty), so an empty lane is modeled as no engine at all.
		l.record(laneOp{kind: opDrop})
		l.e = nil
		l.res = l.res[:0]
		clear(l.id)
		delete(l.prev, seq)
		return nil
	}
	start := time.Now()
	_, ok, err := l.e.Remove(eid)
	l.lat = append(l.lat, float64(time.Since(start).Nanoseconds()))
	if err != nil {
		return fmt.Errorf("arena: lane %s: remove seq %d: %w", l.name, seq, err)
	}
	l.visited += l.e.LastOpStats().Visited
	if ok {
		l.record(laneOp{kind: opRemove, id: eid})
		l.res = append(l.res[:eid], l.res[eid+1:]...)
		delete(l.id, seq)
		for i := eid; i < len(l.res); i++ {
			l.id[l.res[i].seq] = i
		}
		delete(l.prev, seq)
		return nil
	}
	// The ordered policy may refuse a removal (first-fit is not monotone
	// in placement order: the survivors alone need not re-place). Fall
	// back to a rebuild without the departing task; survivors that no
	// longer fit are evicted.
	keep := make([]laneTask, 0, len(l.res)-1)
	for _, lt := range l.res {
		if lt.seq != seq {
			keep = append(keep, lt)
		}
	}
	l.res = keep
	delete(l.prev, seq)
	return l.rebuild()
}

// rebuild re-places the current residents from scratch on the current
// up-machine sub-platform by sequential re-admission in arrival order.
// Residents that no longer fit are evicted (scored, removed from the
// lane). Used for machine churn and for refused ordered removals.
func (l *lane) rebuild() error {
	keep := append([]laneTask(nil), l.res...)
	l.e = nil
	l.res = l.res[:0]
	clear(l.id)
	plat := l.subPlatform()
	for _, lt := range keep {
		if l.e == nil {
			start := time.Now()
			e, err := online.NewEngine(task.Set{lt.t}, plat, online.Options{
				Policy: l.pol, Admission: l.adm, Alpha: l.alpha,
			})
			l.lat = append(l.lat, float64(time.Since(start).Nanoseconds()))
			if err != nil {
				if errors.Is(err, online.ErrInfeasible) {
					l.evict(lt.seq)
					continue
				}
				return fmt.Errorf("arena: lane %s: rebuild: %w", l.name, err)
			}
			l.record(laneOp{kind: opFresh, t: lt.t, plat: plat})
			l.e = e
		} else {
			start := time.Now()
			_, ok, err := l.e.Admit(lt.t)
			l.lat = append(l.lat, float64(time.Since(start).Nanoseconds()))
			if err != nil {
				return fmt.Errorf("arena: lane %s: rebuild: %w", l.name, err)
			}
			l.visited += l.e.LastOpStats().Visited
			if !ok {
				l.evict(lt.seq)
				continue
			}
			l.record(laneOp{kind: opAdmit, t: lt.t})
		}
		l.id[lt.seq] = len(l.res)
		l.res = append(l.res, lt)
	}
	if l.e == nil {
		l.record(laneOp{kind: opDrop})
	}
	return nil
}

func (l *lane) evict(seq int) {
	l.evicted++
	delete(l.prev, seq)
}

// endTick closes the tick: migrations are the residents whose
// full-platform machine changed since the previous tick end (rebuilds
// and repartition hooks both show up here), and utilization spread is
// max−min of load/speed over the up machines.
func (l *lane) endTick(tick int) {
	migrations := 0
	spread := 0.0
	cur := make(map[int]int, len(l.res))
	if l.e != nil {
		r := l.e.Result()
		for eid, lt := range l.res {
			full := l.upIdx[r.Assignment[eid]]
			cur[lt.seq] = full
			if p, ok := l.prev[lt.seq]; ok && p != full {
				migrations++
			}
		}
		lo, hi := 0.0, 0.0
		for j := range r.Loads {
			u := r.Loads[j] / l.full[l.upIdx[j]].Speed
			if j == 0 || u < lo {
				lo = u
			}
			if j == 0 || u > hi {
				hi = u
			}
		}
		spread = hi - lo
	}
	l.prev = cur

	acc := 1.0
	if l.offTotal > 0 {
		acc = float64(l.admTotal) / float64(l.offTotal)
	}
	l.scores = append(l.scores, TickScore{
		Tick: tick, Offered: l.offered, Admitted: l.admitted,
		Rejected: l.rejected, Departed: l.departed, Evicted: l.evicted,
		Resident: len(l.res), Migrations: migrations, Visited: l.visited,
		AcceptanceCum: acc, UtilSpread: spread,
	})
	l.lats = append(l.lats, tickLatency(tick, l.lat))
	l.offered, l.admitted, l.rejected = 0, 0, 0
	l.departed, l.evicted, l.visited = 0, 0, 0
	l.lat = l.lat[:0]
}

// run drives the lane over the whole stream.
func (l *lane) run(st *Stream) error {
	i := 0
	for tick := 0; tick < st.Ticks; tick++ {
		for i < len(st.Events) && st.Events[i].Tick == tick {
			if err := l.apply(st.Events[i]); err != nil {
				return err
			}
			i++
		}
		l.endTick(tick)
	}
	return nil
}
