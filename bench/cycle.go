package main

import (
	"fmt"
	"math/rand"

	"partfeas"
	"partfeas/internal/online"
	"partfeas/internal/partition"
)

// largeSpec is the ROADMAP's m=64, n=1000 instance: the recipe and seed
// 97 of internal/online's benchInstance, so engine benchmarks and this
// workload measure the same resident set.
func largeSpec(id string) *sessionSpec {
	rng := rand.New(rand.NewSource(97))
	const m, n = 64, 1000
	speeds := make([]float64, m)
	var total float64
	for j := range speeds {
		speeds[j] = 0.5 + 2*rng.Float64()
		total += speeds[j]
	}
	ts := make(partfeas.TaskSet, n)
	for i := range ts {
		per := int64(100 + rng.Intn(900))
		u := 0.4 * total / n * (0.5 + rng.Float64())
		ts[i] = partfeas.Task{WCET: max(1, int64(u*float64(per))), Period: per}
	}
	return &sessionSpec{id: id, tasks: ts, speeds: speeds, placement: "first_fit_sorted"}
}

// loadedSpec draws an m-machine, n-task session loaded to ~40% of its
// capacity, with machine speeds uniform in [sLo, sHi].
func loadedSpec(rng *rand.Rand, id string, m, n int, sLo, sHi float64) *sessionSpec {
	speeds := make([]float64, m)
	var total float64
	for j := range speeds {
		speeds[j] = sLo + (sHi-sLo)*rng.Float64()
		total += speeds[j]
	}
	ts := make(partfeas.TaskSet, n)
	for i := range ts {
		per := int64(100 + rng.Intn(900))
		u := 0.4 * total / float64(n) * (0.5 + rng.Float64())
		ts[i] = partfeas.Task{WCET: max(1, int64(u*float64(per))), Period: per}
	}
	return &sessionSpec{id: id, tasks: ts, speeds: speeds, placement: "first_fit_sorted"}
}

// mix is a closed-loop op cycle's composition in percent.
var closedMix = []struct {
	k      kind
	weight int
}{{kTail, 40}, {kInterior, 20}, {kReject, 10}, {kWCET, 20}, {kGet, 5}, {kBatch, 5}}

// cycler draws closed-loop op cycles for one session and runs each one
// against an engine as it is drawn, so that every cycle is known to
// return the session to its initial state and every call carries the
// verdict the server must answer.
type cycler struct {
	spec *sessionSpec
	sess int
	eng  *online.Engine
	n0   int
	d    drawer
}

func newCycler(spec *sessionSpec, sess int) (*cycler, error) {
	eng, err := spec.engine()
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", spec.id, err)
	}
	return &cycler{spec: spec, sess: sess, eng: eng, n0: len(spec.tasks), d: newDrawer(spec)}, nil
}

// script draws nCycles cycles for each of the cyclers, round-robin.
func script(rng *rand.Rand, cyclers []*cycler, nCycles int) ([]*call, error) {
	var out []*call
	for i := 0; i < nCycles; i++ {
		cs, err := cyclers[i%len(cyclers)].cycle(rng)
		if err != nil {
			return nil, err
		}
		cs[0].cycle = true
		out = append(out, cs...)
	}
	return out, nil
}

// cycle draws one op cycle. A draw the engine would not return to the
// initial state (a refused removal or restore, which sorted first-fit's
// non-monotonicity allows) is discarded and drawn again.
func (c *cycler) cycle(rng *rand.Rand) ([]*call, error) {
	w := rng.Intn(100)
	k := closedMix[len(closedMix)-1].k
	for _, m := range closedMix {
		if w < m.weight {
			k = m.k
			break
		}
		w -= m.weight
	}
	for try := 0; try < 50; try++ {
		cs, ok, err := c.try(rng, k)
		if err != nil {
			return nil, err
		}
		if ok {
			return cs, nil
		}
		if c.eng, err = c.spec.engine(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("session %s: no %s cycle returns to the initial state", c.spec.id, opNames[k])
}

func want(res partition.Result, admitted, rolledBack int8, n int) verdict {
	v := noVerdict
	v.admitted, v.rolledBack, v.nTasks = admitted, rolledBack, int32(n)
	v.accepted = b2i(res.Feasible)
	v.failed = int32(res.FailedTask)
	return v
}

func b2i(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

// try draws and simulates one cycle of kind k; ok is false when the
// engine did not end in the initial state (the caller rebuilds it).
func (c *cycler) try(rng *rand.Rand, k kind) ([]*call, bool, error) {
	e, s, sess := c.eng, c.spec, c.sess
	switch k {
	case kTail, kInterior, kReject:
		var t partfeas.Task
		switch k {
		case kTail:
			t, _ = c.d.tail(rng)
		case kInterior:
			t, _ = c.d.interior(rng)
		default:
			t, _ = c.d.reject(rng)
		}
		res, ok, err := e.Admit(t)
		if err != nil {
			return nil, false, err
		}
		if k != kReject && e.LastOpStats().Tail {
			k = kTail
		} else if k != kReject {
			k = kInterior
		}
		a := admitCall(s, sess, k, t, 0, false)
		a.want = want(res, b2i(ok), b2i(!ok), e.Len())
		if k == kReject {
			return []*call{a}, !ok, nil
		}
		if !ok {
			return nil, false, nil
		}
		res, ok, err = e.Remove(c.n0)
		if err != nil || !ok {
			return nil, false, err
		}
		r := removeCall(s, sess, c.n0, false)
		r.want = want(res, 1, 0, e.Len())
		return []*call{a, r}, true, nil
	case kWCET:
		i := rng.Intn(c.n0)
		w := s.tasks[i].WCET
		nw := w + max(1, int64(float64(w)*(0.2+0.8*rng.Float64())))
		res, ok, err := e.UpdateWCET(i, nw)
		if err != nil {
			return nil, false, err
		}
		up := wcetCall(s, sess, i, nw)
		up.want = want(res, b2i(ok), b2i(!ok), e.Len())
		res, ok, err = e.UpdateWCET(i, w)
		if err != nil || !ok {
			return nil, false, err
		}
		back := wcetCall(s, sess, i, w)
		back.want = want(res, 1, 0, e.Len())
		return []*call{up, back}, true, nil
	case kGet:
		g := getCall(s, sess)
		g.want = noVerdict
		res := e.Result()
		g.want.accepted, g.want.failed = b2i(res.Feasible), int32(res.FailedTask)
		return []*call{g}, true, nil
	case kBatch:
		ts := make([]partfeas.Task, 8)
		dls := make([]int64, len(ts))
		for i := range ts {
			if rng.Intn(2) == 0 {
				ts[i], _ = c.d.tail(rng)
			} else {
				ts[i], _ = c.d.interior(rng)
			}
		}
		res, admitted, err := e.AdmitBatch(ts, online.BestEffort)
		if err != nil {
			return nil, false, err
		}
		b := batchCall(s, sess, ts, dls)
		b.want = want(res, -1, -1, e.Len())
		b.want.maskLen = int8(len(admitted))
		for i, ok := range admitted {
			if ok {
				b.want.mask |= 1 << i
			}
		}
		out := []*call{b}
		for idx := e.Len() - 1; idx >= c.n0; idx-- {
			res, ok, err := e.Remove(idx)
			if err != nil || !ok {
				return nil, false, err
			}
			r := removeCall(s, sess, idx, false)
			r.want = want(res, 1, 0, e.Len())
			out = append(out, r)
		}
		return out, true, nil
	}
	return nil, false, fmt.Errorf("no closed-loop cycle of kind %s", opNames[k])
}
