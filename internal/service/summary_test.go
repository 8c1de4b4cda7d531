package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/online"
	"partfeas/internal/partition"
)

// summaryOf is the mutation test block a full test response becomes:
// every field but the assignment.
func summaryOf(full TestResponse) TestSummary {
	return TestSummary{
		Accepted:   full.Accepted,
		Scheduler:  full.Scheduler,
		Alpha:      full.Alpha,
		Loads:      full.Loads,
		FailedTask: full.FailedTask,
	}
}

// entryOf is task i's entry in full's assignment, -1 past its end.
func entryOf(full TestResponse, i int) int {
	if i >= 0 && i < len(full.Assignment) {
		return full.Assignment[i]
	}
	return -1
}

// checkSummary holds a mutation's test block to the full test response
// of the same report, byte for byte once the assignment is dropped.
func checkSummary(t testing.TB, step string, got TestSummary, full TestResponse) {
	t.Helper()
	if g, w := encode(t, got), encode(t, summaryOf(full)); g != w {
		t.Fatalf("%s: test block\n got %s\nwant %s", step, g, w)
	}
}

// checkMachine holds a mutation's machine field to task's entry in full;
// task < 0 (a remove) wants the field absent.
func checkMachine(t testing.TB, step string, got *int, full TestResponse, task int) {
	t.Helper()
	switch {
	case task < 0 && got != nil:
		t.Fatalf("%s: machine %d on a remove, want none", step, *got)
	case task >= 0 && got == nil:
		t.Fatalf("%s: no machine, want task %d's entry %d", step, task, entryOf(full, task))
	case task >= 0 && *got != entryOf(full, task):
		t.Fatalf("%s: machine %d, want task %d's entry %d", step, *got, task, entryOf(full, task))
	}
}

// refSession is a reference model of a session's op semantics: its own
// engine while the resident set is feasible, the paper's batch test
// while it is not. Each op returns the full test response of the report
// the served mutation must summarize.
type refSession struct {
	in          partfeas.Instance // Platform and Scheduler; cs is the resident set
	cs          dbf.Set           // resident tasks with their deadlines (D = P when implicit)
	alpha       float64
	opts        online.Options
	constrained bool
	eng         *online.Engine // nil while disarmed
}

// outcome is one reference mutation: the full response of its report,
// the verdict, and where the op's task sits in the report's set (-1 for
// a remove). batch holds a batch's per-task verdicts.
type outcome struct {
	full                 TestResponse
	admitted, rolledBack bool
	task                 int
	batch                []bool
}

func (r *refSession) engFull(res partition.Result) TestResponse {
	return TestResponseFrom(partfeas.Report{Accepted: res.Feasible, Scheduler: r.in.Scheduler, Alpha: res.Alpha, Partition: res})
}

// split is cs as a task set and, in a constrained session, its
// deadlines (nil otherwise).
func (r *refSession) split(cs dbf.Set) (partfeas.TaskSet, []int64) {
	ts := make(partfeas.TaskSet, len(cs))
	var dls []int64
	if r.constrained {
		dls = make([]int64, len(cs))
	}
	for i, c := range cs {
		ts[i] = partfeas.Task{Name: c.Name, WCET: c.WCET, Period: c.Period}
		if dls != nil {
			dls[i] = c.Deadline
		}
	}
	return ts, dls
}

// fresh is the paper's batch test of cs: the sorted partition solve, or
// for a constrained session dbf.FirstFitResult.
func (r *refSession) fresh(t testing.TB, cs dbf.Set) partfeas.Report {
	t.Helper()
	ts, _ := r.split(cs)
	if !r.constrained {
		rep, err := partfeas.Test(ts, r.in.Platform, r.in.Scheduler, r.alpha)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	res, err := dbf.FirstFitResult(cs, r.in.Platform, r.alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	return partfeas.Report{Accepted: res.Feasible, Scheduler: r.in.Scheduler, Alpha: r.alpha, Partition: res}
}

// commit makes cs resident with the engine disarmed, re-arming it when
// the batch test accepted cs.
func (r *refSession) commit(cs dbf.Set, accepted bool) {
	r.cs, r.eng = cs, nil
	if accepted {
		ts, dls := r.split(cs)
		opts := r.opts
		opts.Deadlines = dls
		if eng, err := online.NewEngine(ts, r.in.Platform, opts); err == nil {
			r.eng = eng
		}
	}
}

// current is the full test block a GET must answer.
func (r *refSession) current(t testing.TB) TestResponse {
	if r.eng == nil {
		return TestResponseFrom(r.fresh(t, r.cs))
	}
	return r.engFull(r.eng.Result())
}

// rearmed is a disarmed op's answer: the batch test's report rep, or,
// when the op re-armed the session, the state of the engine it re-armed.
func (r *refSession) rearmed(rep partfeas.Report) TestResponse {
	if r.eng != nil {
		return r.engFull(r.eng.Result())
	}
	return TestResponseFrom(rep)
}

// change runs an admit (idx = len) or a WCET update (idx < len): cand is
// the tentative set, try the engine's answer while armed.
func (r *refSession) change(t testing.TB, cand dbf.Set, idx int, force bool, try func() (partition.Result, bool, error)) outcome {
	t.Helper()
	if r.eng == nil {
		rep := r.fresh(t, cand)
		ok := rep.Accepted || force
		if ok {
			r.commit(cand, rep.Accepted)
		}
		return outcome{full: r.rearmed(rep), admitted: ok, rolledBack: !ok, task: idx}
	}
	res, ok, err := try()
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{full: r.engFull(res), admitted: ok || force, rolledBack: !(ok || force), task: idx}
	switch {
	case ok:
		r.cs = cand
	case force:
		r.commit(cand, false)
	}
	return o
}

func (r *refSession) admit(t testing.TB, tk partfeas.Task, dl int64, force bool) outcome {
	t.Helper()
	ct := constrainedTask(tk, dl)
	return r.change(t, append(slices.Clone(r.cs), ct), len(r.cs), force, func() (partition.Result, bool, error) {
		return r.eng.AdmitConstrained(ct)
	})
}

func (r *refSession) updateWCET(t testing.TB, idx int, wcet int64, force bool) outcome {
	t.Helper()
	cand := slices.Clone(r.cs)
	cand[idx].WCET = wcet
	return r.change(t, cand, idx, force, func() (partition.Result, bool, error) {
		return r.eng.UpdateWCET(idx, wcet)
	})
}

// remove runs a DELETE, which always commits.
func (r *refSession) remove(t testing.TB, idx int) outcome {
	t.Helper()
	cand := slices.Delete(slices.Clone(r.cs), idx, idx+1)
	if r.eng == nil {
		rep := r.fresh(t, cand)
		r.commit(cand, rep.Accepted)
		return outcome{full: r.rearmed(rep), admitted: rep.Accepted, task: -1}
	}
	res, ok, err := r.eng.Remove(idx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		r.cs = cand
	} else {
		r.commit(cand, false)
	}
	return outcome{full: r.engFull(res), admitted: ok, task: -1}
}

func (r *refSession) engineBatch(t testing.TB, cs dbf.Set, mode online.BatchMode) (partition.Result, []bool) {
	t.Helper()
	res, admitted, err := r.eng.AdmitBatchConstrained(cs, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range admitted {
		if ok {
			r.cs = append(r.cs, cs[i])
		}
	}
	return res, admitted
}

// admitBatch runs a batch: a batch that admitted anything answers the
// resident state after it, one that admitted nothing its last refusal.
func (r *refSession) admitBatch(t testing.TB, ts []partfeas.Task, dls []int64, mode online.BatchMode) outcome {
	t.Helper()
	cs := make(dbf.Set, len(ts))
	for i, tk := range ts {
		cs[i] = constrainedTask(tk, deadlineAt(dls, i))
	}
	switch {
	case len(ts) == 0:
		return outcome{full: r.current(t), batch: []bool{}}
	case r.eng != nil:
		res, admitted := r.engineBatch(t, cs, mode)
		return outcome{full: r.engFull(res), batch: admitted}
	}
	admitted := make([]bool, len(ts))
	if mode == online.AllOrNothing {
		cand := append(slices.Clone(r.cs), cs...)
		rep := r.fresh(t, cand)
		if rep.Accepted {
			r.commit(cand, true)
		}
		for i := range admitted {
			admitted[i] = rep.Accepted
		}
		return outcome{full: TestResponseFrom(rep), batch: admitted}
	}
	var rep partfeas.Report
	for i, ct := range cs {
		if r.eng != nil {
			_, rest := r.engineBatch(t, cs[i:], online.BestEffort)
			copy(admitted[i:], rest)
			break
		}
		cand := append(slices.Clone(r.cs), ct)
		rep = r.fresh(t, cand)
		if rep.Accepted {
			r.commit(cand, true)
		}
		admitted[i] = rep.Accepted
	}
	if slices.Contains(admitted, true) {
		return outcome{full: r.current(t), batch: admitted}
	}
	return outcome{full: TestResponseFrom(rep), batch: admitted}
}

// diffCase is one session shape of the differential.
type diffCase struct {
	name, placement, scheduler string
	constrained                bool
	force                      bool // draw forced ops (and hogs: utilization 3, or about 1 when constrained)
	disarm                     bool // open by force-admitting a hog
	openHog                    bool // open infeasible: the create set holds a hog (five when constrained)
}

// TestMutationSummaryDifferential drives seeded op mixes through the
// handler and holds every mutation response to a reference model: the
// body must equal, byte for byte, the full response of the report the
// reference derives, with the assignment dropped and machine / machines
// set to the op tasks' entries in it. After every op a GET's full test
// block must equal the reference's resident state, and a committed op's
// loads must byte-equal that GET's loads. Constrained sessions take the
// same forced ops and infeasible opens as implicit ones, held to
// dbf.FirstFit while the reference is disarmed.
func TestMutationSummaryDifferential(t *testing.T) {
	for _, c := range []diffCase{
		{name: "first_fit_sorted", placement: "first_fit_sorted", scheduler: "edf", force: true},
		{name: "best_fit", placement: "best_fit", scheduler: "edf"},
		{name: "first_fit_arrival", placement: "first_fit_arrival", scheduler: "rms"},
		{name: "constrained", placement: "first_fit_sorted", scheduler: "edf", constrained: true},
		{name: "force_disarmed", placement: "first_fit_sorted", scheduler: "rms", force: true, disarm: true},
		{name: "best_fit_disarmed", placement: "best_fit", scheduler: "edf", force: true, openHog: true},
		{name: "constrained_force", placement: "first_fit_sorted", scheduler: "edf", constrained: true, force: true},
		{name: "constrained_best_fit_disarmed", placement: "best_fit", scheduler: "edf", constrained: true, force: true, openHog: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runDifferential(t, c, seed, 120)
			}
		})
	}
}

func runDifferential(t *testing.T, c diffCase, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	speeds := []float64{1, 2, 1.5}
	periods := []int64{50, 100, 200}
	// draw returns one task in wire form (with a deadline on constrained
	// sessions) and in library form; with hogs, one in 12 has utilization
	// 3, or on constrained sessions, where C ≤ D ≤ P caps it at 1, one in
	// 3 has utilization at least 0.9.
	draw := func(hogs bool) (TaskJSON, partfeas.Task) {
		p := periods[rng.Intn(len(periods))]
		w := 1 + rng.Int63n(p*6/10)
		switch {
		case !hogs:
		case c.constrained && rng.Intn(3) == 0:
			w = p - rng.Int63n(p/10+1)
		case !c.constrained && rng.Intn(12) == 0:
			w = 3 * p
		}
		tj := TaskJSON{WCET: w, Period: p}
		if c.constrained {
			tj.Deadline = w + rng.Int63n(p-w+1)
		}
		return tj, partfeas.Task{WCET: w, Period: p}
	}

	create := CreateSessionRequest{Placement: c.placement}
	create.Speeds, create.Scheduler = speeds, c.scheduler
	if c.constrained {
		create.DeadlineModel = "constrained"
	}
	for i := 0; i < 4; i++ {
		tj, _ := draw(false)
		create.Tasks = append(create.Tasks, tj)
	}
	switch {
	case c.openHog && c.constrained:
		for i := 0; i < 5; i++ {
			create.Tasks = append(create.Tasks, TaskJSON{WCET: 100, Period: 100, Deadline: 100})
		}
	case c.openHog:
		create.Tasks = append(create.Tasks, TaskJSON{WCET: 300, Period: 100})
	}
	in := partfeas.Instance{Platform: partfeas.NewPlatform(speeds...), Scheduler: partfeas.EDF}
	if c.scheduler == "rms" {
		in.Scheduler = partfeas.RMS
	}
	pol, err := online.ParsePolicy(c.placement)
	if err != nil {
		t.Fatal(err)
	}
	adm, _ := in.Scheduler.Admission()
	ref := &refSession{in: in, alpha: 1, constrained: c.constrained, opts: online.Options{Policy: pol, Alpha: 1, Admission: adm}}
	for _, tj := range create.Tasks {
		ref.cs = append(ref.cs, constrainedTask(partfeas.Task{WCET: tj.WCET, Period: tj.Period}, tj.Deadline))
	}
	ts, dls := ref.split(ref.cs)
	opts := ref.opts
	opts.Deadlines = dls
	ref.eng, err = online.NewEngine(ts, in.Platform, opts)
	switch {
	case c.openHog && ref.eng != nil:
		t.Fatalf("seed %d: the create set with a hog opened armed", seed)
	case !c.openHog && err != nil:
		t.Fatalf("seed %d: reference engine: %v", seed, err)
	}

	s := newTestServer(t)
	body, _ := json.Marshal(create)
	w := do(t, s, http.MethodPost, "/v1/sessions", string(body))
	if w.Code != http.StatusCreated {
		t.Fatalf("seed %d: create: %d %s", seed, w.Code, w.Body)
	}
	var created SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	base := "/v1/sessions/" + created.ID

	var counts struct{ rolledBack, disarmed, batchAdmits, committed, rearms, forcedDisarms, forcedFails int }
	for op := 0; op < ops; op++ {
		step := fmt.Sprintf("seed %d op %d", seed, op)
		wasArmed := ref.eng != nil
		force := c.force && rng.Intn(4) == 0
		var o outcome
		var method, path, mode string
		var req any
		switch k := rng.Intn(10); {
		case op == 0 && c.disarm:
			hog := partfeas.Task{WCET: 300, Period: 100}
			method, path = http.MethodPost, "/tasks"
			req = AddTaskRequest{Task: TaskJSON{WCET: hog.WCET, Period: hog.Period}, Force: true}
			o = ref.admit(t, hog, 0, true)
		case k < 4:
			tj, tk := draw(c.force)
			method, path = http.MethodPost, "/tasks"
			req = AddTaskRequest{Task: tj, Force: force}
			o = ref.admit(t, tk, tj.Deadline, force)
		case k < 6 && len(ref.cs) > 1:
			idx := rng.Intn(len(ref.cs))
			method, path = http.MethodDelete, fmt.Sprintf("/tasks/%d", idx)
			o = ref.remove(t, idx)
		case k < 8:
			idx := rng.Intn(len(ref.cs))
			wcet := 1 + rng.Int63n(ref.cs[idx].Deadline)
			method, path = http.MethodPost, "/wcet"
			req = UpdateWCETRequest{Index: idx, WCET: wcet, Force: force}
			o = ref.updateWCET(t, idx, wcet, force)
		default:
			bm := online.BestEffort
			if rng.Intn(3) == 0 {
				bm = online.AllOrNothing
			}
			mode = bm.String()
			br := AdmitBatchRequest{Mode: mode}
			var ts []partfeas.Task
			var bdls []int64
			for i := rng.Intn(5); i > 0; i-- {
				tj, tk := draw(c.force)
				br.Tasks = append(br.Tasks, tj)
				ts = append(ts, tk)
				bdls = append(bdls, tj.Deadline)
			}
			method, path, req = http.MethodPost, "/admit-batch", br
			o = ref.admitBatch(t, ts, bdls, bm)
		}
		reqBody := ""
		if req != nil {
			b, _ := json.Marshal(req)
			reqBody = string(b)
		}
		w := do(t, s, method, base+path, reqBody)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %s %s %s: %d %s", step, method, path, reqBody, w.Code, w.Body)
		}

		var want any
		committed := false
		if o.batch != nil {
			n := 0
			for _, ok := range o.batch {
				if ok {
					n++
				}
			}
			machines := make([]int, len(o.batch))
			next := len(ref.cs) - n
			for i, ok := range o.batch {
				machines[i] = -1
				if ok {
					machines[i] = entryOf(o.full, next)
					next++
				}
			}
			want = BatchAdmissionResponse{
				Mode: mode, Admitted: o.batch, Machines: machines, NAdmitted: n,
				NTasks: len(ref.cs), Test: summaryOf(o.full), Durability: "none",
			}
			committed = n > 0 && o.full.Accepted
			if n > 0 {
				counts.batchAdmits++
			}
		} else {
			ar := AdmissionResponse{
				Admitted: o.admitted, RolledBack: o.rolledBack, NTasks: len(ref.cs),
				Test: summaryOf(o.full), Durability: "none",
			}
			if o.task >= 0 {
				m := entryOf(o.full, o.task)
				ar.Machine = &m
			}
			want = ar
			committed = o.admitted && !o.rolledBack && o.full.Accepted
		}
		if got, want := w.Body.String(), encode(t, want); got != want {
			t.Fatalf("%s: %s %s %s:\n got %s\nwant %s", step, method, path, reqBody, got, want)
		}
		if o.rolledBack {
			counts.rolledBack++
		}
		if force && o.admitted && !o.full.Accepted {
			counts.forcedFails++
		}
		if ref.eng == nil {
			counts.disarmed++
		}
		switch {
		case !wasArmed && ref.eng != nil && o.batch == nil:
			counts.rearms++
		case wasArmed && ref.eng == nil && c.placement != "first_fit_sorted":
			counts.forcedDisarms++
		}

		g := do(t, s, http.MethodGet, base, "")
		var st struct {
			Tasks []TaskJSON      `json:"tasks"`
			Test  json.RawMessage `json:"test"`
		}
		if err := json.Unmarshal(g.Body.Bytes(), &st); err != nil || g.Code != http.StatusOK {
			t.Fatalf("%s: get: %d %s", step, g.Code, g.Body)
		}
		if len(st.Tasks) != len(ref.cs) {
			t.Fatalf("%s: get lists %d tasks, reference holds %d", step, len(st.Tasks), len(ref.cs))
		}
		cur, _ := json.Marshal(ref.current(t))
		if !bytes.Equal(st.Test, cur) {
			t.Fatalf("%s: get test block\n got %s\nwant %s", step, st.Test, cur)
		}
		if committed {
			counts.committed++
			if got, want := loadsOf(t, w.Body.Bytes()), loadsOf(t, g.Body.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("%s: committed op's loads %s, next GET's %s", step, got, want)
			}
		}
	}
	t.Logf("seed %d: %d ops, %d rolled back, %d answered disarmed, %d batches admitting, %d committed, %d single-op re-arms, %d forced-refusal disarms, %d forced failures",
		seed, ops, counts.rolledBack, counts.disarmed, counts.batchAdmits, counts.committed, counts.rearms, counts.forcedDisarms, counts.forcedFails)
	if counts.rolledBack == 0 || counts.committed == 0 || counts.batchAdmits == 0 || (c.disarm && counts.disarmed == 0) ||
		(c.force && counts.forcedFails == 0) ||
		(c.openHog && (counts.rearms == 0 || counts.forcedDisarms == 0)) {
		t.Fatalf("seed %d: op mix too narrow: %+v", seed, counts)
	}
}

// loadsOf is the raw loads array of a body's test block.
func loadsOf(t testing.TB, body []byte) json.RawMessage {
	t.Helper()
	var v struct {
		Test struct {
			Loads json.RawMessage `json:"loads"`
		} `json:"test"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.Test.Loads
}
