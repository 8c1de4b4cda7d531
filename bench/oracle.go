package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"partfeas"
	"partfeas/internal/service"
)

// oracle checks a server workload's outputs, off the clock:
//   - closed loop: every served verdict equals the one the engine gave
//     for the same call when the script was drawn, and each session ends
//     on its initial task set;
//   - every session's final GET test block equals, byte for byte, a fresh
//     partfeas.Test of the task set the GET lists (sorted implicit
//     sessions; the engine guarantees the others no such identity);
//   - the cluster's requests were answered by both replicas, each by the
//     replica its session lives on.
func oracle(res *result, e *env, m *measured, dials *atomic.Int64) {
	closed := e.scripts != nil
	served := make([]int, e.replicas)
	for _, t := range m.tallies {
		if t.mismatches > 0 {
			res.problem("%d served verdicts differ from the engine's; first: %s", t.mismatches, t.firstMismatch)
		}
		if t.misrouted > 0 {
			res.problem("%d requests answered by the wrong replica; first: %s", t.misrouted, t.firstMisroute)
		}
		for i, n := range t.served {
			served[i] += n
		}
	}
	c := newConn(e.target, dials)
	defer c.close()
	for i, s := range e.specs {
		if s.dls != nil || s.placement != "first_fit_sorted" {
			continue
		}
		body, _, err := c.expect(getCall(s, i), nil, http.StatusOK)
		if err != nil {
			res.problem("final state of %s: %v", s.id, err)
			continue
		}
		var base partfeas.TaskSet
		if closed {
			base = s.tasks
		}
		if err := checkFinal(body, base); err != nil {
			res.problem("final state of %s: %v", s.id, err)
		}
	}
	if e.replicas > 1 {
		for i, n := range served {
			if n == 0 {
				res.problem("replica %d answered no request (X-Shard counts %v)", i, served)
			}
		}
	}
}

// checkFinal compares a session's GET response with a fresh solve of the
// task set it lists; base, when non-nil, is the task set it must list.
func checkFinal(body []byte, base partfeas.TaskSet) error {
	var got struct {
		Tasks    []service.TaskJSON    `json:"tasks"`
		Machines []service.MachineJSON `json:"machines"`
		Alpha    float64               `json:"alpha"`
		Test     json.RawMessage       `json:"test"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding the session: %w", err)
	}
	ts := make(partfeas.TaskSet, len(got.Tasks))
	for i, t := range got.Tasks {
		ts[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
	}
	if base != nil {
		if len(ts) != len(base) {
			return fmt.Errorf("%d tasks resident, the script returns every session to its %d", len(ts), len(base))
		}
		for i := range ts {
			if ts[i] != base[i] {
				return fmt.Errorf("task %d is %+v, the script returns it to %+v", i, ts[i], base[i])
			}
		}
	}
	p := make(partfeas.Platform, len(got.Machines))
	for i, mc := range got.Machines {
		p[i] = partfeas.Machine{Name: mc.Name, Speed: mc.Speed}
	}
	rep, err := partfeas.Test(ts, p, partfeas.EDF, got.Alpha)
	if err != nil {
		return fmt.Errorf("fresh test: %w", err)
	}
	want, err := json.Marshal(service.TestResponseFrom(rep))
	if err != nil {
		return err
	}
	if !bytes.Equal(got.Test, want) {
		return fmt.Errorf("served test block differs from a fresh partfeas.Test:\n served %.300s\n fresh  %.300s", got.Test, want)
	}
	return nil
}
