// Record framing and payload schemas for the write-ahead log.
//
// Every record — in log segments and in checkpoint files alike — uses the
// same envelope (all integers big-endian):
//
//	+--------------+--------------+------+-----------+-------------------+
//	| length (u32) |  crc32 (u32) | kind | LSN (u64) | payload (length-9)|
//	+--------------+--------------+------+-----------+-------------------+
//
// length covers kind+LSN+payload; the CRC (Castagnoli) covers the same
// bytes, so a torn or bit-flipped tail is detected before any payload is
// decoded. Payloads are JSON: the log is a low-rate, high-value stream
// (one record per committed transaction), so we trade compactness for
// debuggability — a segment can be inspected with od and jq.
//
// The durable unit is the paper's composed net transition effect [I, D, U]
// of a committed operation block (Definition 2.1), not the statements that
// produced it: rule selection among unordered rules is explicitly arbitrary
// (Section 4), so replaying statements could legally diverge from the
// pre-crash execution, while replaying net effects cannot.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record kinds.
const (
	// KindCommit carries the net [I, D, U] effect of one committed
	// transaction (external block plus all rule-generated transitions).
	KindCommit byte = 1
	// KindDDL carries one definition statement (CREATE TABLE, CREATE RULE,
	// DROP INDEX, ...) as SQL text. DDL executes between transactions and
	// never triggers rules, so text replay is deterministic.
	KindDDL byte = 2

	// Checkpoint-file record kinds.
	KindCkptMeta  byte = 3 // CkptMeta: counters and schema script
	KindCkptRows  byte = 4 // CkptRows: one batch of tuples with handles
	KindCkptRules byte = 5 // CkptRules: rule definitions script
	KindCkptEnd   byte = 6 // empty: marks the checkpoint complete

	// KindEpoch opens a promotion epoch (EpochRecord, see epoch.go). It has
	// no database effect; its LSN is the epoch's boundary in the stream.
	KindEpoch byte = 7
)

// recHeaderSize is the fixed envelope prefix: u32 length + u32 crc.
const recHeaderSize = 8

// recBodyPrefix is kind byte + u64 LSN, the framed part before the payload.
const recBodyPrefix = 9

// maxRecordSize bounds a single record so that a corrupt length prefix
// cannot force an arbitrary allocation during recovery.
const maxRecordSize = 256 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Cell is one tuple value with an explicit kind tag: "" (SQL NULL), "i"
// (int64), "f" (float64), "s" (string), "b" (bool). JSON alone cannot
// round-trip the engine's int64/float64 distinction, and recovery must
// land on a byte-identical state. The wire protocol encodes result cells
// with this same type (wire.Cell).
type Cell struct {
	Kind string  `json:"k,omitempty"`
	Int  int64   `json:"i,omitempty"`
	Flt  float64 `json:"f,omitempty"`
	Str  string  `json:"s,omitempty"`
	Bool bool    `json:"b,omitempty"`
}

// CellOf encodes one engine value (nil, int64, float64, string, bool).
func CellOf(v any) (Cell, error) {
	switch x := v.(type) {
	case nil:
		return Cell{}, nil
	case int64:
		return Cell{Kind: "i", Int: x}, nil
	case float64:
		return Cell{Kind: "f", Flt: x}, nil
	case string:
		return Cell{Kind: "s", Str: x}, nil
	case bool:
		return Cell{Kind: "b", Bool: x}, nil
	default:
		return Cell{}, fmt.Errorf("wal: cannot encode cell of type %T", v)
	}
}

// Value decodes the cell back to the engine's representation.
func (c Cell) Value() (any, error) {
	switch c.Kind {
	case "":
		return nil, nil
	case "i":
		return c.Int, nil
	case "f":
		return c.Flt, nil
	case "s":
		return c.Str, nil
	case "b":
		return c.Bool, nil
	default:
		return nil, fmt.Errorf("wal: unknown cell kind %q", c.Kind)
	}
}

// TupleRec is one tuple: its system handle and its full row.
type TupleRec struct {
	Handle uint64 `json:"h"`
	Row    []Cell `json:"r"`
}

// TableEffect is the net effect of a committed transaction on one table:
// inserted tuples (with their final values), deleted handles, and updated
// tuples (with their final values — replay overwrites the whole row). The
// three sets are disjoint by Definition 2.1.
type TableEffect struct {
	Table string     `json:"t"`
	Ins   []TupleRec `json:"ins,omitempty"`
	Del   []uint64   `json:"del,omitempty"`
	Upd   []TupleRec `json:"upd,omitempty"`
}

// CommitRecord is the durable image of one committed transaction.
// LastHandle is the storage handle counter after the transaction, so that
// recovery resumes handle allocation exactly where the crashed process
// stopped (handles are never reused, Section 2).
type CommitRecord struct {
	LastHandle uint64        `json:"last_handle"`
	Tables     []TableEffect `json:"tables,omitempty"`
}

// DDLRecord is one definition statement, replayed as text.
type DDLRecord struct {
	Stmt string `json:"stmt"`
}

// CkptMeta opens a checkpoint file: the handle counter, the last LSN whose
// effects the checkpoint includes, and the schema script (CREATE TABLE and
// CREATE INDEX statements, produced by the dump machinery).
type CkptMeta struct {
	LastHandle uint64 `json:"last_handle"`
	LSN        uint64 `json:"lsn"`
	Schema     string `json:"schema"`
	// Epochs is the full promotion-epoch table at checkpoint time, so a
	// node bootstrapped from this image can still place every historical
	// epoch boundary (epoch.go) after the records themselves are pruned.
	Epochs []EpochMark `json:"epochs,omitempty"`
}

// CkptRows is one batch of a table's tuples, handles included.
type CkptRows struct {
	Table  string     `json:"t"`
	Tuples []TupleRec `json:"rows"`
}

// CkptRules carries the rule-definition script (CREATE RULE statements,
// priorities, deactivations — again from the dump machinery).
type CkptRules struct {
	SQL string `json:"sql"`
}

// Record is one decoded log record.
type Record struct {
	LSN    uint64
	Kind   byte
	Commit *CommitRecord // set for KindCommit
	DDL    *DDLRecord    // set for KindDDL
	Epoch  *EpochRecord  // set for KindEpoch
}

// encodeFrame frames one record: envelope, kind, LSN, payload.
func encodeFrame(kind byte, lsn uint64, payload []byte) []byte {
	body := make([]byte, recBodyPrefix+len(payload))
	body[0] = kind
	binary.BigEndian.PutUint64(body[1:recBodyPrefix], lsn)
	copy(body[recBodyPrefix:], payload)
	frame := make([]byte, recHeaderSize+len(body))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
	copy(frame[recHeaderSize:], body)
	return frame
}

// rawRecord is one framed record located in a byte buffer.
type rawRecord struct {
	kind    byte
	lsn     uint64
	payload []byte
}

// scanFrames walks the framed records in data. It returns the records that
// are fully present and checksum-clean, plus the byte offset where the
// valid prefix ends. Anything after validLen — a torn tail from a crash
// mid-write, or a corrupted record — is for the caller to truncate. A
// record that is invalid makes everything after it unreachable (framing
// has no resynchronization points, by design: the log's only legal failure
// mode is a torn tail).
func scanFrames(data []byte) (recs []rawRecord, validLen int) {
	off := 0
	for {
		if off+recHeaderSize > len(data) {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n < recBodyPrefix || n > maxRecordSize || off+recHeaderSize+n > len(data) {
			return recs, off
		}
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		body := data[off+recHeaderSize : off+recHeaderSize+n]
		if crc32.Checksum(body, crcTable) != crc {
			return recs, off
		}
		recs = append(recs, rawRecord{
			kind:    body[0],
			lsn:     binary.BigEndian.Uint64(body[1:recBodyPrefix]),
			payload: body[recBodyPrefix:],
		})
		off += recHeaderSize + n
	}
}

// decodeRecord unmarshals one raw log record's payload.
func decodeRecord(raw rawRecord) (Record, error) {
	rec := Record{LSN: raw.lsn, Kind: raw.kind}
	switch raw.kind {
	case KindCommit:
		rec.Commit = &CommitRecord{}
		if err := json.Unmarshal(raw.payload, rec.Commit); err != nil {
			return rec, fmt.Errorf("wal: decode commit record lsn %d: %w", raw.lsn, err)
		}
	case KindDDL:
		rec.DDL = &DDLRecord{}
		if err := json.Unmarshal(raw.payload, rec.DDL); err != nil {
			return rec, fmt.Errorf("wal: decode ddl record lsn %d: %w", raw.lsn, err)
		}
	case KindEpoch:
		rec.Epoch = &EpochRecord{}
		if err := json.Unmarshal(raw.payload, rec.Epoch); err != nil {
			return rec, fmt.Errorf("wal: decode epoch record lsn %d: %w", raw.lsn, err)
		}
	default:
		return rec, fmt.Errorf("wal: unexpected record kind %d at lsn %d in log segment", raw.kind, raw.lsn)
	}
	return rec, nil
}

// marshalPayload JSON-encodes a record payload.
func marshalPayload(v any) ([]byte, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wal: encode %T: %w", v, err)
	}
	return p, nil
}

// unmarshalJSON decodes a record payload.
func unmarshalJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("decode %T: %w", v, err)
	}
	return nil
}
