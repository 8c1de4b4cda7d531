// Package oplog provides the durability layer for the admission service:
// a versioned, checksummed binary record format for every session-mutating
// operation, an append-only segmented write-ahead log with group-commit
// fsync, and atomic snapshots keyed by last-applied op index.
//
// The contract with the layer above is log-then-apply: a mutation is
// encoded as an Op, appended to the WAL (the acknowledgement point), and
// only then applied to in-memory state. Because every mutation of the
// online engine is deterministic, replaying the op sequence through the
// same code paths reconstructs byte-identical state — which is what the
// recovery tests assert.
//
// On disk a record is framed as
//
//	[payload length: uint32 LE][CRC-32C of payload: uint32 LE][payload]
//
// and the payload itself starts with a version byte and an op-type byte,
// followed by the op fields in a fixed order (uvarints, length-prefixed
// strings, IEEE-754 bit patterns as fixed 64-bit LE). Every field is
// always present regardless of op type; the cost is a few bytes per
// record and the payoff is a single codec with no per-type branching to
// keep in sync.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Type identifies which session mutation a record describes.
type Type uint8

// The op types. Values are part of the on-disk format: never reorder.
const (
	typeInvalid Type = iota
	// TypeCreate records a session creation, including the id the store
	// assigned, so replay reconstructs identical ids.
	TypeCreate
	// TypeAdmit records a single task admission (Tasks has one entry).
	TypeAdmit
	// TypeAdmitBatch records a batch admission.
	TypeAdmitBatch
	// TypeRemove records a task removal; Target is the task index.
	TypeRemove
	// TypeUpdateWCET records a WCET update; Target (task index) and WCET.
	TypeUpdateWCET
	// TypeRepartition records an applied repartition plan. Replaying it
	// re-plans and re-applies, which is deterministic for a given state.
	TypeRepartition
	// TypeDestroy records a session deletion.
	TypeDestroy
	// TypeMigrateOut records a session's ownership handoff to another
	// replica (Peer), fencing it locally. Snapshot carries the session's
	// final encoded state so a crashed source can re-drive the transfer
	// idempotently; Epoch is the ownership epoch the destination assumes.
	TypeMigrateOut
	// TypeMigrateIn records a session's arrival from another replica:
	// Snapshot is the post-replay state the destination activated, Epoch
	// the ownership epoch it now holds.
	TypeMigrateIn

	typeMax
)

func (t Type) String() string {
	switch t {
	case TypeCreate:
		return "create"
	case TypeAdmit:
		return "admit"
	case TypeAdmitBatch:
		return "admit-batch"
	case TypeRemove:
		return "remove"
	case TypeUpdateWCET:
		return "update-wcet"
	case TypeRepartition:
		return "repartition"
	case TypeDestroy:
		return "destroy"
	case TypeMigrateOut:
		return "migrate-out"
	case TypeMigrateIn:
		return "migrate-in"
	default:
		return fmt.Sprintf("oplog.Type(%d)", uint8(t))
	}
}

// Task is one task as it appears inside an op: the admission parameters,
// not engine state. Deadline is 0 for implicit-deadline sessions.
type Task struct {
	Name     string
	WCET     int64
	Period   int64
	Deadline int64
}

// Machine is one platform machine of a TypeCreate op.
type Machine struct {
	Name  string
	Speed float64
}

// Op is one session-mutating operation. Index is assigned by the WAL at
// append time and is strictly sequential; replay verifies the sequence.
type Op struct {
	Index   uint64
	Type    Type
	Session string

	// Create parameters.
	Alpha         float64
	Scheduler     string // "edf" | "rms"
	Machines      []Machine
	Placement     string // "sorted" | "arrival"
	DeadlineModel string // "" (implicit) | "constrained"
	Force         bool

	// Admission payloads: one entry for TypeAdmit and the initial set of
	// TypeCreate, any number for TypeAdmitBatch.
	Tasks     []Task
	BatchMode string // "" | "all_or_nothing" | "best_effort"

	// Target is the op-specific small integer: the task index for
	// TypeRemove / TypeUpdateWCET, max_moves for TypeRepartition.
	Target int
	// WCET is TypeUpdateWCET's new worst-case execution time.
	WCET int64

	// Migration fields (version 2; zero on records decoded from v1).
	// Epoch is the ownership epoch a TypeMigrateOut cedes or a
	// TypeMigrateIn assumes; Peer is the counterpart replica's base URL;
	// Snapshot is the session's encoded final state at the handoff.
	Epoch    uint64
	Peer     string
	Snapshot []byte
}

const (
	// recordVersion is what new records are written as. Version 2 added
	// the migration fields (Epoch, Peer, Snapshot); version 1 records
	// decode with those fields zero, so pre-cluster WALs replay unchanged.
	recordVersion   = 2
	recordVersionV1 = 1

	// frameHeaderLen is the length + checksum prefix of every record.
	frameHeaderLen = 8

	// maxPayloadLen bounds a single record; anything larger is treated
	// as corruption rather than attempted as an allocation.
	maxPayloadLen = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrCorrupt wraps all forms of payload damage;
// ErrShortRecord means the frame itself is incomplete (a torn tail).
var (
	ErrCorrupt     = errors.New("oplog: corrupt record")
	ErrShortRecord = errors.New("oplog: short record")
)

// appendPayload encodes op (without the frame) onto buf and returns the
// extended slice.
func appendPayload(buf []byte, op *Op) []byte {
	buf = append(buf, recordVersion, byte(op.Type))
	buf = binary.AppendUvarint(buf, op.Index)
	buf = appendString(buf, op.Session)
	buf = appendF64(buf, op.Alpha)
	buf = appendString(buf, op.Scheduler)
	buf = binary.AppendUvarint(buf, uint64(len(op.Machines)))
	for i := range op.Machines {
		buf = appendString(buf, op.Machines[i].Name)
		buf = appendF64(buf, op.Machines[i].Speed)
	}
	buf = appendString(buf, op.Placement)
	buf = appendString(buf, op.DeadlineModel)
	buf = appendBool(buf, op.Force)
	buf = binary.AppendUvarint(buf, uint64(len(op.Tasks)))
	for i := range op.Tasks {
		t := &op.Tasks[i]
		buf = appendString(buf, t.Name)
		buf = binary.AppendUvarint(buf, uint64(t.WCET))
		buf = binary.AppendUvarint(buf, uint64(t.Period))
		buf = binary.AppendUvarint(buf, uint64(t.Deadline))
	}
	buf = appendString(buf, op.BatchMode)
	buf = binary.AppendUvarint(buf, uint64(op.Target))
	buf = binary.AppendUvarint(buf, uint64(op.WCET))
	buf = binary.AppendUvarint(buf, op.Epoch)
	buf = appendString(buf, op.Peer)
	buf = binary.AppendUvarint(buf, uint64(len(op.Snapshot)))
	buf = append(buf, op.Snapshot...)
	return buf
}

// appendFrame encodes op with its length + checksum frame onto buf.
func appendFrame(buf []byte, op *Op) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = appendPayload(buf, op)
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodePayload decodes a verified payload into op. It rejects trailing
// bytes, unknown versions/types, and truncated fields, all as ErrCorrupt.
func decodePayload(payload []byte, op *Op) error {
	d := decoder{buf: payload}
	ver := d.byte()
	typ := d.byte()
	if d.err == nil && ver != recordVersion && ver != recordVersionV1 {
		return fmt.Errorf("%w: record version %d, want %d or %d", ErrCorrupt, ver, recordVersionV1, recordVersion)
	}
	if d.err == nil && (Type(typ) <= typeInvalid || Type(typ) >= typeMax) {
		return fmt.Errorf("%w: unknown op type %d", ErrCorrupt, typ)
	}
	op.Type = Type(typ)
	op.Index = d.uvarint()
	op.Session = d.str()
	op.Alpha = d.f64()
	op.Scheduler = d.str()
	nsp := d.uvarint()
	if d.err == nil && nsp > uint64(len(d.buf)-d.off)/9 {
		// 9 = minimum encoded machine size (1-byte name length + 8).
		return fmt.Errorf("%w: machines length %d exceeds record", ErrCorrupt, nsp)
	}
	op.Machines = nil
	if nsp > 0 && d.err == nil {
		op.Machines = make([]Machine, nsp)
		for i := range op.Machines {
			op.Machines[i].Name = d.str()
			op.Machines[i].Speed = d.f64()
		}
	}
	op.Placement = d.str()
	op.DeadlineModel = d.str()
	op.Force = d.bool()
	nt := d.uvarint()
	if d.err == nil && nt > uint64(len(d.buf)-d.off)/4 {
		// 4 = minimum encoded task size (1-byte name length + 3 uvarints).
		return fmt.Errorf("%w: tasks length %d exceeds record", ErrCorrupt, nt)
	}
	op.Tasks = nil
	if nt > 0 && d.err == nil {
		op.Tasks = make([]Task, nt)
		for i := range op.Tasks {
			t := &op.Tasks[i]
			t.Name = d.str()
			t.WCET = int64(d.uvarint())
			t.Period = int64(d.uvarint())
			t.Deadline = int64(d.uvarint())
		}
	}
	op.BatchMode = d.str()
	op.Target = int(d.uvarint())
	op.WCET = int64(d.uvarint())
	op.Epoch = 0
	op.Peer = ""
	op.Snapshot = nil
	if ver >= recordVersion {
		op.Epoch = d.uvarint()
		op.Peer = d.str()
		op.Snapshot = d.bytes()
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// decodeFrame parses one framed record from buf. It returns the number
// of bytes consumed. ErrShortRecord means buf ends mid-record (a torn
// tail if buf is the end of a segment); ErrCorrupt means the frame is
// complete but damaged.
func decodeFrame(buf []byte, op *Op) (int, error) {
	if len(buf) < frameHeaderLen {
		return 0, ErrShortRecord
	}
	n := binary.LittleEndian.Uint32(buf)
	crc := binary.LittleEndian.Uint32(buf[4:])
	if n > maxPayloadLen {
		return 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	if uint32(len(buf)-frameHeaderLen) < n {
		return 0, ErrShortRecord
	}
	payload := buf[frameHeaderLen : frameHeaderLen+int(n)]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, crc)
	}
	if err := decodePayload(payload, op); err != nil {
		return 0, err
	}
	return frameHeaderLen + int(n), nil
}

// decoder reads the fixed-order payload fields with a sticky error, so
// the field decoders stay branch-free at the call sites.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload at offset %d", ErrCorrupt, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
