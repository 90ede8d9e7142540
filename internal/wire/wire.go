// Package wire defines the client/server protocol of the soprd network
// front-end: length-prefixed frames carrying JSON-encoded request and
// response messages. The engine itself processes a single stream of
// operation blocks (paper Section 2.1); the protocol's job is only to move
// scripts and results between processes, so it favors simplicity and
// robustness over compactness.
//
// Frame layout (network byte order):
//
//	+------+----------------+------------------+
//	| type |  length (u32)  | payload (length) |
//	+------+----------------+------------------+
//
// The type byte identifies the message; the payload is the JSON encoding
// of the corresponding Go struct (empty for Ping/Pong). Frames larger than
// the negotiated maximum are rejected before the payload is read, so a
// malicious or broken peer cannot force an arbitrary allocation.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sopr/internal/engine"
	"sopr/internal/wal"
)

// Message types. Requests have the high bit clear, responses have it set;
// MsgError may answer any request.
const (
	MsgExec      byte = 0x01 // ExecRequest: run a script (DDL, rules, operation blocks)
	MsgQuery     byte = 0x02 // QueryRequest: evaluate one SELECT
	MsgDump      byte = 0x03 // no payload: request a recreate script
	MsgStats     byte = 0x04 // no payload: request engine + server counters
	MsgPing      byte = 0x05 // no payload: liveness probe
	MsgExecBatch byte = 0x06 // ExecBatchRequest: run N statements as one operation block

	MsgExecResult      byte = 0x81 // ExecResponse
	MsgQueryResult     byte = 0x82 // Rows
	MsgDumpResult      byte = 0x83 // DumpResponse
	MsgStatsResult     byte = 0x84 // StatsResponse
	MsgPong            byte = 0x85 // no payload
	MsgExecBatchResult byte = 0x86 // ExecResponse (same shape as MsgExecResult)
	MsgError           byte = 0xff // ErrorResponse
)

// DefaultMaxFrame is the frame-size guard used when a Server or Client is
// configured with zero: large enough for bulk inserts and dumps, small
// enough that a bogus length prefix cannot exhaust memory.
const DefaultMaxFrame = 8 << 20

// headerSize is the fixed frame header: type byte + u32 payload length.
const headerSize = 5

// ErrFrameTooLarge is returned when a frame (incoming or outgoing) exceeds
// the maximum size. An oversized incoming frame's payload is not consumed,
// but its declared length is known (see FrameSizeError), so a server can
// drain exactly that many bytes and keep the session; an oversized
// outgoing frame never touches the wire at all.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// FrameSizeError is the concrete error ReadFrame returns for an oversized
// incoming frame. It wraps ErrFrameTooLarge (errors.Is keeps working) and
// carries the declared payload length so the reader can discard exactly
// the unread payload and resynchronize on the next frame boundary.
type FrameSizeError struct {
	Declared int // payload length from the frame header
	Max      int // the limit it exceeded
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame exceeds maximum size: %d > %d bytes", e.Declared, e.Max)
}

func (e *FrameSizeError) Unwrap() error { return ErrFrameTooLarge }

// Error codes carried by ErrorResponse.
const (
	CodeParse    = "parse"     // script failed to parse; Line is set
	CodeExec     = "exec"      // script parsed but execution failed
	CodeBadFrame = "bad_frame" // unknown message type or undecodable payload
	CodeTooLarge = "too_large" // request frame exceeded the maximum; session dropped
	CodeShutdown = "shutdown"  // server is draining; retry elsewhere
	CodeInternal = "internal"  // unexpected server-side failure
	// CodeFrameTooLarge reports an oversized request frame whose payload
	// the server drained: unlike CodeTooLarge, the session stays usable —
	// the client may shrink (or split) the request and resend on the same
	// connection.
	CodeFrameTooLarge = "frame_too_large"
)

// ExecRequest asks the server to execute a script as the next operation
// blocks in its single stream.
type ExecRequest struct {
	Src string `json:"src"`
	// Epoch, when nonzero, is the highest promotion epoch the client has
	// observed. A server at a lower epoch fences itself and refuses the
	// write; a server at a higher epoch answers stale_epoch so the client
	// re-probes. Zero claims nothing (pre-failover clients).
	Epoch uint64 `json:"epoch,omitempty"`
}

// ExecBatchRequest asks the server to execute a list of data-manipulation
// statements as ONE operation block: one engine pass, one commit record,
// one (shared) fsync — the set-oriented batching the paper's rule model
// makes natural, since rules already process net effects per transaction.
// Definitions (CREATE TABLE/RULE, DROP, CHECKPOINT) are rejected: they
// execute between transactions and cannot join a block.
type ExecBatchRequest struct {
	Stmts []string `json:"stmts"`
	// Epoch has ExecRequest.Epoch semantics.
	Epoch uint64 `json:"epoch,omitempty"`
}

// QueryRequest asks the server to evaluate a single SELECT outside any
// transaction. MinLSN, when nonzero, asks a replica to serve the query
// only once it has applied at least that LSN (read-your-writes: clients
// pass the LSN token returned by their last write); a replica that cannot
// catch up within its wait bound answers CodeLagging. Primaries are
// always current and ignore it.
type QueryRequest struct {
	Src    string `json:"src"`
	MinLSN uint64 `json:"min_lsn,omitempty"`
}

// Firing mirrors sopr.Firing across the wire.
type Firing struct {
	Rule   string `json:"rule"`
	Effect string `json:"effect"`
}

// Rows is a result set. Cells are typed explicitly because JSON alone
// cannot round-trip the engine's int64/float64 distinction.
type Rows struct {
	Columns []string `json:"columns"`
	Data    [][]Cell `json:"data"`
}

// ExecResponse mirrors sopr.Result across the wire.
type ExecResponse struct {
	RolledBack   bool     `json:"rolled_back,omitempty"`
	RollbackRule string   `json:"rollback_rule,omitempty"`
	Firings      []Firing `json:"firings,omitempty"`
	Results      []Rows   `json:"results,omitempty"`
	// LSN is the server's last durable LSN after the exec (zero on an
	// in-memory server). Clients use it as a read-your-writes token: a
	// later query with MinLSN = LSN on any replica observes this write.
	LSN uint64 `json:"lsn,omitempty"`
	// Epoch is the serving node's promotion epoch at exec time.
	Epoch uint64 `json:"epoch,omitempty"`
	// Synced reports that the commit was acknowledged by the configured
	// number of synchronous followers before this response was sent — the
	// write survives any single failover to one of them. False in async
	// mode and when the sync wait timed out (degraded ack).
	Synced bool `json:"synced,omitempty"`
}

// DumpResponse carries a SQL script recreating the database.
type DumpResponse struct {
	Script string `json:"script"`
}

// EngineStats is the engine's counter list, declared once with its JSON
// tags in engine.Stats (sopr.Stats is the same type).
type EngineStats = engine.Stats

// ServerStats are the network front-end's own counters, kept separately
// from the engine's rule-processing counters.
type ServerStats struct {
	Accepted    int64 `json:"accepted"`     // connections accepted
	Active      int64 `json:"active"`       // connections currently open
	Execs       int64 `json:"execs"`        // Exec requests served
	BatchExecs  int64 `json:"batch_execs"`  // ExecBatch requests served
	Queries     int64 `json:"queries"`      // Query requests served
	Dumps       int64 `json:"dumps"`        // Dump requests served
	StatsReqs   int64 `json:"stats_reqs"`   // Stats requests served
	Pings       int64 `json:"pings"`        // Ping requests served
	Errors      int64 `json:"errors"`       // error responses sent
	BadFrames   int64 `json:"bad_frames"`   // connections dropped on framing errors
	InFlight    int64 `json:"in_flight"`    // requests being processed right now
	DrainedReqs int64 `json:"drained_reqs"` // requests completed during shutdown drain
}

// StatsResponse bundles both counter sets, plus the node's replication
// state when it participates in replication (nil on a standalone server).
type StatsResponse struct {
	Engine EngineStats `json:"engine"`
	Server ServerStats `json:"server"`
	Repl   *ReplStats  `json:"repl,omitempty"`
}

// ErrorResponse reports a failed request with a structured code. Line is
// the 1-based line within the submitted script for CodeParse errors, 0
// otherwise.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	// Epoch qualifies fenced/stale_epoch errors: the epoch that fenced the
	// node (fenced) or the node's own current epoch (stale_epoch), so the
	// client can adopt it and re-probe without another round trip.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ---------------------------------------------------------------------------
// Typed cells
// ---------------------------------------------------------------------------

// Cell is one result-set value with an explicit kind tag: "" (SQL NULL),
// "i" (int64), "f" (float64), "s" (string), or "b" (bool). It is the
// write-ahead log's cell, so results and logged tuples share one encoding.
type Cell = wal.Cell

// RowsOf encodes a column/data result set (the sopr.Rows layout).
func RowsOf(columns []string, data [][]any) (Rows, error) {
	out := Rows{Columns: columns}
	for _, row := range data {
		cells := make([]Cell, len(row))
		for i, v := range row {
			c, err := wal.CellOf(v)
			if err != nil {
				return Rows{}, err
			}
			cells[i] = c
		}
		out.Data = append(out.Data, cells)
	}
	return out, nil
}

// Decode converts the wire rows back to columns + raw cell data.
func (r Rows) Decode() (columns []string, data [][]any, err error) {
	for _, row := range r.Data {
		vals := make([]any, len(row))
		for i, c := range row {
			if vals[i], err = c.Value(); err != nil {
				return nil, nil, err
			}
		}
		data = append(data, vals)
	}
	return r.Columns, data, nil
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

// WriteFrame writes one frame. max bounds the payload size (0 means
// DefaultMaxFrame); oversized writes fail before touching the wire so the
// stream stays consistent.
func WriteFrame(w io.Writer, typ byte, payload []byte, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if len(payload) > max {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), max)
	}
	buf := make([]byte, headerSize+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:headerSize], uint32(len(payload)))
	copy(buf[headerSize:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. max bounds the accepted payload size (0 means
// DefaultMaxFrame). A declared length beyond max returns a *FrameSizeError
// (wrapping ErrFrameTooLarge) without consuming the payload — the caller
// may drain FrameSizeError.Declared bytes to resynchronize; a stream that
// ends mid-frame returns io.ErrUnexpectedEOF (io.EOF only at a clean frame
// boundary).
func ReadFrame(r io.Reader, max int) (typ byte, payload []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // clean EOF allowed between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > uint32(max) {
		return hdr[0], nil, &FrameSizeError{Declared: int(n), Max: max}
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// WriteMessage JSON-encodes v (nil for payload-less messages) and writes
// it as one frame.
func WriteMessage(w io.Writer, typ byte, v any, max int) error {
	var payload []byte
	if v != nil {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			return fmt.Errorf("wire: encode %T: %w", v, err)
		}
	}
	return WriteFrame(w, typ, payload, max)
}

// Unmarshal decodes a frame payload into v.
func Unmarshal(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: decode %T: %w", v, err)
	}
	return nil
}

// TypeName returns a human-readable name for a message type byte (for
// logs and error messages).
func TypeName(typ byte) string {
	switch typ {
	case MsgExec:
		return "exec"
	case MsgQuery:
		return "query"
	case MsgDump:
		return "dump"
	case MsgStats:
		return "stats"
	case MsgPing:
		return "ping"
	case MsgExecBatch:
		return "exec_batch"
	case MsgExecResult:
		return "exec_result"
	case MsgQueryResult:
		return "query_result"
	case MsgDumpResult:
		return "dump_result"
	case MsgStatsResult:
		return "stats_result"
	case MsgPong:
		return "pong"
	case MsgExecBatchResult:
		return "exec_batch_result"
	case MsgError:
		return "error"
	case MsgReplJoin:
		return "repl_join"
	case MsgReplAck:
		return "repl_ack"
	case MsgReplPromote:
		return "repl_promote"
	case MsgReplSnapFrame:
		return "repl_snap_frame"
	case MsgReplRecord:
		return "repl_record"
	case MsgReplHeartbeat:
		return "repl_heartbeat"
	case MsgReplPromoted:
		return "repl_promoted"
	case MsgReplFollow:
		return "repl_follow"
	case MsgReplFollowed:
		return "repl_followed"
	default:
		return fmt.Sprintf("0x%02x", typ)
	}
}
