package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"partfeas"
	"partfeas/internal/online"
	"partfeas/internal/service"
)

// kind classifies one HTTP request by what the service does with it.
type kind int8

const (
	kTail     kind = iota // single admit landing at the end of the sorted order
	kInterior             // single admit landing mid-order (suffix replay)
	kReject               // single admit no machine can take
	kRemove
	kWCET
	kGet
	kBatch
	kTest   // stateless POST /v1/test
	kRepart // repartition plan (apply=false)
	kForce  // force-admit of an infeasible task (batch-Tester fallback)
	nKinds
)

// singleAdmit reports whether the request is a single-task admit, the
// population behind latency.admit_p50_us and latency.admit_p99_us.
func (k kind) singleAdmit() bool { return k == kTail || k == kInterior || k == kReject }

// sessionSpec is one admission session as the benchmark creates it.
type sessionSpec struct {
	id        string
	tasks     partfeas.TaskSet
	dls       []int64 // relative deadlines of a constrained session; nil when implicit
	speeds    []float64
	placement string
}

func (s *sessionSpec) platform() partfeas.Platform { return partfeas.NewPlatform(s.speeds...) }

// createBody renders the POST /v1/sessions body.
func (s *sessionSpec) createBody() []byte {
	req := service.CreateSessionRequest{Placement: s.placement}
	req.Speeds = s.speeds
	req.Tasks = make([]service.TaskJSON, len(s.tasks))
	for i, t := range s.tasks {
		req.Tasks[i] = service.TaskJSON{WCET: t.WCET, Period: t.Period}
		if s.dls != nil {
			req.Tasks[i].Deadline = s.dls[i]
		}
	}
	if s.dls != nil {
		req.DeadlineModel = "constrained"
	}
	return mustJSON(req)
}

// engine builds a fresh engine over the session's initial state, with the
// options the service uses for the same session.
func (s *sessionSpec) engine() (*online.Engine, error) { return s.engineWith(s.tasks) }

// engineWith builds the session's engine over another task set (an
// implicit session's, as the service re-arms it after a fallback).
func (s *sessionSpec) engineWith(ts partfeas.TaskSet) (*online.Engine, error) {
	pol, err := online.ParsePolicy(s.placement)
	if err != nil {
		return nil, err
	}
	opts := online.Options{Policy: pol, Alpha: 1}
	if s.dls != nil {
		opts.Deadlines = s.dls
		opts.ApproxK = 8 // the service's constrained-session depth
	} else {
		opts.Admission, err = partfeas.EDF.Admission()
		if err != nil {
			return nil, err
		}
	}
	return online.NewEngine(ts, s.platform(), opts)
}

// op carries a call's parameters in structured form for the replays.
type op struct {
	tasks []partfeas.Task
	dls   []int64
	index int
	wcet  int64
	// fallback marks a call served on the batch-Tester path: a force
	// admit and the remove that follows it.
	fallback bool
}

// call is one pre-rendered HTTP request plus the operation it carries.
type call struct {
	kind   kind
	sess   int // index into the run's sessions; -1 for stateless requests
	method string
	path   string
	body   []byte
	op     op
	// want is the verdict the server must answer (closed loop only).
	want verdict
	// cycle marks the first call of a closed-loop op cycle: every session
	// the connection drives is at its initial state before it.
	cycle bool
}

func admitCall(s *sessionSpec, sess int, k kind, t partfeas.Task, dl int64, force bool) *call {
	req := service.AddTaskRequest{Task: service.TaskJSON{WCET: t.WCET, Period: t.Period, Deadline: dl}, Force: force}
	return &call{kind: k, sess: sess, method: "POST", path: "/v1/sessions/" + s.id + "/tasks", body: mustJSON(req),
		op: op{tasks: []partfeas.Task{t}, dls: []int64{dl}, fallback: force}}
}

func removeCall(s *sessionSpec, sess, idx int, fallback bool) *call {
	return &call{kind: kRemove, sess: sess, method: "DELETE", path: "/v1/sessions/" + s.id + "/tasks/" + strconv.Itoa(idx),
		op: op{index: idx, fallback: fallback}}
}

func wcetCall(s *sessionSpec, sess, idx int, w int64) *call {
	return &call{kind: kWCET, sess: sess, method: "POST", path: "/v1/sessions/" + s.id + "/wcet",
		body: mustJSON(service.UpdateWCETRequest{Index: idx, WCET: w}), op: op{index: idx, wcet: w}}
}

func getCall(s *sessionSpec, sess int) *call {
	return &call{kind: kGet, sess: sess, method: "GET", path: "/v1/sessions/" + s.id}
}

func batchCall(s *sessionSpec, sess int, ts []partfeas.Task, dls []int64) *call {
	req := service.AdmitBatchRequest{Tasks: make([]service.TaskJSON, len(ts))}
	for i, t := range ts {
		req.Tasks[i] = service.TaskJSON{WCET: t.WCET, Period: t.Period, Deadline: dls[i]}
	}
	return &call{kind: kBatch, sess: sess, method: "POST", path: "/v1/sessions/" + s.id + "/admit-batch", body: mustJSON(req),
		op: op{tasks: ts, dls: dls}}
}

func repartCall(s *sessionSpec, sess int) *call {
	return &call{kind: kRepart, sess: sess, method: "POST", path: "/v1/sessions/" + s.id + "/repartition", body: []byte("{}")}
}

func testCall(ts partfeas.TaskSet, speeds []float64) *call {
	req := service.TestRequest{}
	req.Speeds = speeds
	req.Tasks = make([]service.TaskJSON, len(ts))
	for i, t := range ts {
		req.Tasks[i] = service.TaskJSON{WCET: t.WCET, Period: t.Period}
	}
	return &call{kind: kTest, sess: -1, method: "POST", path: "/v1/test", body: mustJSON(req)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always encode
	}
	return b
}

// drawer draws the tasks a session's ops offer: tail tasks below every
// resident utilization, interior tasks inside the resident band, and
// rejected tasks heavier than the fastest machine.
type drawer struct {
	uLo, uHi    float64
	rejectMul   int64 // rejected tasks have WCET = rejectMul·period
	constrained bool
}

func newDrawer(s *sessionSpec) drawer {
	var total, fastest float64
	for _, sp := range s.speeds {
		total += sp
		fastest = math.Max(fastest, sp)
	}
	mean := 0.4 * total / float64(len(s.tasks)) // the recipes load every session to ~40%
	return drawer{uLo: 0.6 * mean, uHi: 1.4 * mean, rejectMul: int64(fastest) + 1, constrained: s.dls != nil}
}

func (d drawer) tail(rng *rand.Rand) (partfeas.Task, int64) {
	t := partfeas.Task{WCET: 1, Period: 1<<20 - rng.Int63n(1<<18)}
	return t, d.deadline(t, 0.5)
}

func (d drawer) interior(rng *rand.Rand) (partfeas.Task, int64) {
	u := d.uLo + (d.uHi-d.uLo)*rng.Float64()
	per := int64(100 + rng.Intn(900))
	t := partfeas.Task{WCET: max(1, int64(math.Round(u*float64(per)))), Period: per}
	return t, d.deadline(t, 0.6+0.4*rng.Float64())
}

func (d drawer) reject(rng *rand.Rand) (partfeas.Task, int64) {
	per := int64(100 + rng.Intn(900))
	t := partfeas.Task{WCET: d.rejectMul * per, Period: per}
	return t, d.deadline(t, 1)
}

// deadline is 0 (implicit) on implicit sessions, else frac·period clamped
// to [WCET, period].
func (d drawer) deadline(t partfeas.Task, frac float64) int64 {
	if !d.constrained {
		return 0
	}
	dl := int64(frac * float64(t.Period))
	return min(max(dl, t.WCET), t.Period)
}

// verdict is the part of a response the oracle compares. -1 marks a
// field the response does not carry.
type verdict struct {
	admitted   int8
	rolledBack int8
	accepted   int8
	maskLen    int8   // length of a batch's admitted array; -1 when not an array
	mask       uint16 // batch admitted bits, input order
	nTasks     int32
	failed     int32
}

var noVerdict = verdict{admitted: -1, rolledBack: -1, accepted: -1, maskLen: -1, nTasks: -1, failed: -1}

func (v verdict) String() string {
	return fmt.Sprintf("{admitted:%d rolled_back:%d n_tasks:%d accepted:%d failed_task:%d batch:%d/%b}",
		v.admitted, v.rolledBack, v.nTasks, v.accepted, v.failed, v.maskLen, v.mask)
}

// parseVerdict reads the verdict fields of a response body by key, so it
// needs no full decode and does not depend on field order.
func parseVerdict(b []byte) verdict {
	v := noVerdict
	if x := after(b, `"admitted":`, false); x != nil {
		if x[0] == '[' {
			v.maskLen = 0
			for _, tok := range bytes.Split(x[1:bytes.IndexByte(x, ']')], []byte(",")) {
				if len(tok) == 0 {
					continue
				}
				if tok[0] == 't' {
					v.mask |= 1 << v.maskLen
				}
				v.maskLen++
			}
		} else {
			v.admitted = boolField(x)
		}
	}
	if x := after(b, `"rolled_back":`, false); x != nil {
		v.rolledBack = boolField(x)
	}
	if x := after(b, `"n_tasks":`, false); x != nil {
		v.nTasks = int32(intField(x))
	}
	if x := after(b, `"accepted":`, false); x != nil {
		v.accepted = boolField(x)
	}
	if x := after(b, `"failed_task":`, true); x != nil {
		v.failed = int32(intField(x))
	}
	return v
}

func after(b []byte, key string, last bool) []byte {
	var i int
	if last {
		i = bytes.LastIndex(b, []byte(key))
	} else {
		i = bytes.Index(b, []byte(key))
	}
	if i < 0 || i+len(key) >= len(b) {
		return nil
	}
	return b[i+len(key):]
}

func boolField(x []byte) int8 {
	if x[0] == 't' {
		return 1
	}
	return 0
}

func intField(x []byte) int {
	n, i, neg := 0, 0, false
	if x[0] == '-' {
		neg, i = true, 1
	}
	for ; i < len(x) && x[i] >= '0' && x[i] <= '9'; i++ {
		n = n*10 + int(x[i]-'0')
	}
	if neg {
		return -n
	}
	return n
}
