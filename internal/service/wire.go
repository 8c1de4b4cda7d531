package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The hot response types encode through hand-written appenders instead
// of reflection: they answer every served session op, so encoding/json's
// per-element reflection and garbage used to dominate a served admit.
// The mutation responses carry a TestSummary (m-entry loads, no
// assignment), so their bodies are O(m); only the full TestResponse of a
// GET or /test writes the session's n-entry assignment. Each appendJSON
// writes exactly what
// json.NewEncoder(w).Encode writes, minus the trailing newline: fields in
// declaration order, omitempty as tagged, null for a nil slice, floats by
// encoding/json's 'f'/'e' rule, and strings raw only when no byte needs
// escaping (anything else goes through json.Marshal for that string).
// The bool is false when a float is NaN or ±Inf, which encoding/json
// refuses; WriteJSON then falls back to encoding/json so the outcome
// stays what it always was. A test block whose loads a session formatted
// under its lock carries that text instead of the floats (loadMemo); the
// session formats them only when every load is finite, and every other
// float of a session response is validated finite, so such a block
// never takes the fallback.

func (r TestResponse) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendBool(b, r.Accepted)
	b = append(b, `,"scheduler":`...)
	b = appendString(b, r.Scheduler)
	b = append(b, `,"alpha":`...)
	b, ok := appendFloat(b, r.Alpha)
	b = append(b, `,"assignment":`...)
	b = appendInts(b, r.Assignment)
	b = append(b, `,"loads":`...)
	b, lok := appendLoads(b, r.Loads, r.loads)
	b = append(b, `,"failed_task":`...)
	b = strconv.AppendInt(b, int64(r.FailedTask), 10)
	return append(b, '}'), ok && lok
}

func (r TestSummary) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendBool(b, r.Accepted)
	b = append(b, `,"scheduler":`...)
	b = appendString(b, r.Scheduler)
	b = append(b, `,"alpha":`...)
	b, ok := appendFloat(b, r.Alpha)
	b = append(b, `,"loads":`...)
	b, lok := appendLoads(b, r.Loads, r.loads)
	b = append(b, `,"failed_task":`...)
	b = strconv.AppendInt(b, int64(r.FailedTask), 10)
	return append(b, '}'), ok && lok
}

func (r AdmissionResponse) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"admitted":`...)
	b = strconv.AppendBool(b, r.Admitted)
	b = append(b, `,"rolled_back":`...)
	b = strconv.AppendBool(b, r.RolledBack)
	b = append(b, `,"n_tasks":`...)
	b = strconv.AppendInt(b, int64(r.NTasks), 10)
	if r.Machine != nil {
		b = append(b, `,"machine":`...)
		b = strconv.AppendInt(b, int64(*r.Machine), 10)
	}
	b = append(b, `,"test":`...)
	b, ok := r.Test.appendJSON(b)
	b = appendDurability(b, r.Durability)
	return append(b, '}'), ok
}

func (r BatchAdmissionResponse) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"mode":`...)
	b = appendString(b, r.Mode)
	b = append(b, `,"admitted":`...)
	if r.Admitted == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range r.Admitted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"machines":`...)
	b = appendInts(b, r.Machines)
	b = append(b, `,"n_admitted":`...)
	b = strconv.AppendInt(b, int64(r.NAdmitted), 10)
	b = append(b, `,"n_tasks":`...)
	b = strconv.AppendInt(b, int64(r.NTasks), 10)
	b = append(b, `,"test":`...)
	b, ok := r.Test.appendJSON(b)
	b = appendDurability(b, r.Durability)
	return append(b, '}'), ok
}

func (r SessionResponse) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"id":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"scheduler":`...)
	b = appendString(b, r.Scheduler)
	b = append(b, `,"alpha":`...)
	b, ok := appendFloat(b, r.Alpha)
	b = append(b, `,"placement":`...)
	b = appendString(b, r.Placement)
	if r.DeadlineModel != "" {
		b = append(b, `,"deadline_model":`...)
		b = appendString(b, r.DeadlineModel)
	}
	b = append(b, `,"tasks":`...)
	if r.Tasks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range r.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			b = t.appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"machines":`...)
	if r.Machines == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range r.Machines {
			if i > 0 {
				b = append(b, ',')
			}
			var mok bool
			b, mok = m.appendJSON(b)
			ok = ok && mok
		}
		b = append(b, ']')
	}
	b = append(b, `,"test":`...)
	var tok bool
	b, tok = r.Test.appendJSON(b)
	b = appendDurability(b, r.Durability)
	return append(b, '}'), ok && tok
}

func (t TaskJSON) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if t.Name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, t.Name)
		b = append(b, ',')
	}
	b = append(b, `"wcet":`...)
	b = strconv.AppendInt(b, t.WCET, 10)
	b = append(b, `,"period":`...)
	b = strconv.AppendInt(b, t.Period, 10)
	if t.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, t.Deadline, 10)
	}
	return append(b, '}')
}

func (m MachineJSON) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, '{')
	if m.Name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, m.Name)
		b = append(b, ',')
	}
	b = append(b, `"speed":`...)
	b, ok := appendFloat(b, m.Speed)
	return append(b, '}'), ok
}

// appendInts writes an int slice: null when nil.
func appendInts(b []byte, vs []int) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendFloats writes a float slice: null when nil, false when any
// element is NaN or ±Inf.
func appendFloats(b []byte, vs []float64) ([]byte, bool) {
	if vs == nil {
		return append(b, "null"...), true
	}
	ok := true
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var fok bool
		b, fok = appendFloat(b, v)
		ok = ok && fok
	}
	return append(b, ']'), ok
}

// appendLoads writes a test block's loads: the text a session formatted
// under its lock when there is one, else the floats.
func appendLoads(b []byte, vs []float64, text *[]byte) ([]byte, bool) {
	if text != nil {
		return append(b, *text...), true
	}
	return appendFloats(b, vs)
}

// loadMemo is a session's per-machine memo of formatted loads: for each
// machine, the float64 bits of the last committed load the session
// formatted and that load's appendFloat text. A tail admit or remove
// changes one machine's load, so its response copies m−1 texts and
// formats one float instead of m.
//
// It is a cache, not state. It never enters the WAL, snapshots or
// migration records: a session restored from a snapshot starts cold,
// and WAL replay and a migration's tail replay run the live op paths,
// which warm it as they answer. It is keyed by bits, not value, so −0 keeps encoding as "-0". Only the
// loads of the committed state update it: a refusal's witness loads, the
// prefix folds at the failure point, are formatted past it, or a head
// refusal's all-zero witness would evict every entry.
type loadMemo []loadText

type loadText struct {
	bits uint64
	n    uint8 // text length; 0 while cold
	b    [25]byte
}

// appendLoads appends loads as a JSON array, copying the memo's text for
// every load whose bits match its entry and formatting the rest; commit
// stores what it formats. ok is false when a load is NaN or ±Inf.
func (m *loadMemo) appendLoads(b []byte, loads []float64, commit bool) ([]byte, bool) {
	if commit && len(*m) != len(loads) {
		*m = make(loadMemo, len(loads))
	}
	memo := *m
	b = append(b, '[')
	for j, f := range loads {
		if j > 0 {
			b = append(b, ',')
		}
		bits := math.Float64bits(f)
		if j < len(memo) && memo[j].n > 0 && memo[j].bits == bits {
			b = append(b, memo[j].b[:memo[j].n]...)
			continue
		}
		start := len(b)
		var ok bool
		if b, ok = appendFloat(b, f); !ok {
			return b, false
		}
		if commit && len(b)-start <= len(memo[j].b) {
			memo[j].bits, memo[j].n = bits, uint8(copy(memo[j].b[:], b[start:]))
		}
	}
	return append(b, ']'), true
}

// appendDurability writes the omitempty durability field the three
// mutation and state responses end with.
func appendDurability(b []byte, d string) []byte {
	if d == "" {
		return b
	}
	b = append(b, `,"durability":`...)
	return appendString(b, d)
}

// appendFloat formats f as encoding/json does: 'f' notation unless
// 0 < |f| < 1e-6 or |f| ≥ 1e21, then 'e' with a two-digit negative
// exponent shortened (e-07 → e-7). It reports false for NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendString quotes s raw when every byte is printable ASCII that
// encoding/json's HTML-safe encoder leaves alone; any other string is
// rare on the wire and goes through json.Marshal, which escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// bodyPool recycles response buffers; one larger than maxPooledBody is
// left to the collector so a rare huge body does not pin its memory.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// WriteJSON answers with status code and v as a JSON body, byte-identical
// to json.NewEncoder(w).Encode(v) including its trailing newline. The
// body is encoded into a pooled buffer first and goes out in one Write.
// The hot response types take their appenders; everything else, and a
// hot value holding a non-finite float, takes encoding/json. A value
// encoding/json refuses answers with an empty body, as the streaming
// encoder always did.
//
// WriteJSON sets no Content-Length. net/http adds one to a body that fits
// its 2 KB chunking buffer and chunks a larger one, exactly as it framed
// the streaming encoder's output. A chunked body ends only after the
// handler returns, so a span timed around the handler (the repository
// benchmark's traced runs) always ends before the client reads the
// last byte; with an explicit Content-Length a body larger than the
// connection buffer could be read in full first.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	bp := bodyPool.Get().(*[]byte)
	b := (*bp)[:0]
	var ok bool
	var loads *[]byte // a session's loads text, released once written
	switch r := v.(type) {
	case TestResponse:
		b, ok = r.appendJSON(b)
		loads = r.loads
	case AdmissionResponse:
		b, ok = r.appendJSON(b)
		loads = r.Test.loads
	case BatchAdmissionResponse:
		b, ok = r.appendJSON(b)
		loads = r.Test.loads
	case SessionResponse:
		b, ok = r.appendJSON(b)
		loads = r.Test.loads
	}
	if loads != nil {
		putBody(loads)
	}
	if ok {
		b = append(b, '\n')
	} else {
		buf := bytes.NewBuffer(b[:0])
		if err := json.NewEncoder(buf).Encode(v); err != nil {
			buf.Reset()
		}
		b = buf.Bytes()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
	*bp = b
	putBody(bp)
}

// putBody returns a buffer to bodyPool unless it grew past
// maxPooledBody.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}
