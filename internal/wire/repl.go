// Replication messages: the WAL-shipping stream between a primary soprd
// and its read replicas, carried over the same length-prefixed frame
// transport as the request/response protocol.
//
// The role handshake is one request/response pair: a follower sends
// MsgReplJoin with the LSN it has applied; the primary answers with either
// a checkpoint bootstrap (MsgReplSnap frames, when the follower's resume
// point was pruned) or goes straight to the continuous stream. From then
// on the session is a long-lived duplex stream: the primary pushes
// MsgReplRecord frames in strict LSN order and MsgReplHeartbeat frames
// when idle, while the follower pushes MsgReplAck frames upstream so the
// primary can pin WAL retention at the slowest connected follower and
// report lag.
//
// Record and snapshot payloads carry the WAL's own JSON encodings verbatim
// (json.RawMessage): the bytes a follower applies are exactly the bytes
// crash recovery would replay, so replication inherits recovery's
// determinism argument — net effects replayed with rules disabled cannot
// diverge (paper Definition 2.1, Section 4).
package wire

import (
	"encoding/json"
	"fmt"
)

// Replication message types. Requests/upstream frames have the high bit
// clear, primary->follower stream frames have it set.
const (
	MsgReplJoin    byte = 0x10 // ReplJoinRequest: follower joins the stream
	MsgReplAck     byte = 0x11 // ReplAck: follower reports its applied LSN
	MsgReplPromote byte = 0x12 // ReplPromoteRequest (or empty): promote a replica
	MsgReplFollow  byte = 0x13 // ReplFollowRequest: follow this leader at this epoch

	MsgReplSnapFrame byte = 0x90 // ReplSnapFrame: one checkpoint-bootstrap part
	MsgReplRecord    byte = 0x91 // ReplRecord: one WAL record
	MsgReplHeartbeat byte = 0x92 // ReplHeartbeat: primary liveness + current LSN
	MsgReplPromoted  byte = 0x93 // ReplPromotedResponse: promotion acknowledged
	MsgReplFollowed  byte = 0x94 // ReplFollowedResponse: re-point/demotion acknowledged
)

// Replication error codes carried by ErrorResponse.
const (
	// CodeReadOnly rejects a write on a replica: writes go to the primary.
	CodeReadOnly = "read_only"
	// CodeNotPrimary rejects a stream join on a server that cannot serve
	// replication (no write-ahead log, or itself a replica).
	CodeNotPrimary = "not_primary"
	// CodeLagging rejects a read whose MinLSN the replica could not reach
	// within the server's wait bound; the client should retry elsewhere.
	CodeLagging = "lagging"
	// CodeDiverged rejects a join whose resume LSN is ahead of the
	// primary's log — or past the boundary of an epoch the follower never
	// saw — the follower holds state this primary's history never wrote,
	// so streaming could not converge; it must reset and rebootstrap.
	CodeDiverged = "diverged"
	// CodeFenced rejects a write or a stream join on a node that has
	// observed a higher promotion epoch than its own: the cluster moved on
	// and this node's writes can no longer be part of the single ordered
	// stream. The ErrorResponse carries the fencing epoch.
	CodeFenced = "fenced"
	// CodeStaleEpoch rejects a request carrying an epoch older than the
	// serving node's: the client's view of the cluster is out of date and
	// it should re-probe. The ErrorResponse carries the node's epoch.
	CodeStaleEpoch = "stale_epoch"
)

// ReplMaxFrame is the frame-size cap for stream sessions. Stream frames
// carry whole WAL records and checkpoint row batches, which can exceed the
// request/response DefaultMaxFrame; both ends of a stream use this larger
// cap after the join handshake.
const ReplMaxFrame = 64 << 20

// ReplJoinRequest asks the primary to stream the WAL. FromLSN is the last
// LSN the follower has applied (0 for a fresh replica): the stream resumes
// at FromLSN+1, or bootstraps from a checkpoint when that point is pruned.
// Epoch is the promotion epoch of the follower's local history — the epoch
// the record at FromLSN belongs to, not merely the highest epoch it has
// heard of. The source uses the pair to decide exactly whether the
// follower's history forked from its own (diverged) or whether the source
// itself is the stale party (fenced).
type ReplJoinRequest struct {
	FromLSN uint64 `json:"from_lsn"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// ReplPromoteRequest asks a replica to become the primary of a new epoch.
// Epoch is the epoch the promoting client wants opened (its cluster-wide
// view + 1); the node opens max(Epoch, its own highest seen + 1) so epochs
// never move backwards. An empty-payload MsgReplPromote means Epoch 0.
type ReplPromoteRequest struct {
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplPromotedResponse acknowledges a promotion: the epoch actually opened
// and the node's LSN at promotion time.
type ReplPromotedResponse struct {
	Epoch uint64 `json:"epoch"`
	LSN   uint64 `json:"lsn,omitempty"`
}

// ReplFollowRequest tells a node who leads the given epoch. On a replica
// it re-points the stream at Leader; on a primary with an older epoch it
// is a demotion order: step down, truncate any unshipped suffix, and
// rejoin the cluster as Leader's follower.
type ReplFollowRequest struct {
	Leader string `json:"leader"`
	Epoch  uint64 `json:"epoch"`
}

// ReplFollowedResponse acknowledges a follow/demotion order.
type ReplFollowedResponse struct {
	Epoch uint64 `json:"epoch"`
}

// ReplSnapFrame is one part of a checkpoint bootstrap: the WAL checkpoint
// record kind (wal.KindCkptMeta, KindCkptRows, KindCkptRules, KindCkptEnd)
// and its payload, verbatim. The frame with the end-marker kind completes
// the snapshot; records follow.
type ReplSnapFrame struct {
	Kind    byte            `json:"k"`
	Payload json.RawMessage `json:"p,omitempty"`
}

// ReplRecord is one WAL record in flight: LSN, record kind (wal.KindCommit
// or wal.KindDDL), and the record's JSON payload verbatim. Records arrive
// in strictly consecutive LSN order; a gap or repeat means the stream is
// broken and the follower must rejoin.
type ReplRecord struct {
	LSN     uint64          `json:"lsn"`
	Kind    byte            `json:"k"`
	Payload json.RawMessage `json:"p"`
	// Epoch is the source's current epoch when the frame was sent. A
	// follower that has seen a newer epoch treats a lower value as a
	// stream from a stale (fenced) source and disconnects.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplHeartbeat is sent by an idle primary: LSN is its last durable LSN,
// so a caught-up follower can report zero lag and a lagging one can
// measure its distance even when nothing new arrives for it. Epoch is the
// source's current epoch, like ReplRecord's.
type ReplHeartbeat struct {
	LSN   uint64 `json:"lsn"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplAck reports the follower's applied LSN upstream. The primary pins
// WAL retention at the minimum acknowledged LSN across connected
// followers, uses it for lag accounting, and — in synchronous-commit
// mode — releases commits waiting on this LSN. Epoch is the highest epoch
// the follower has observed: an ack carrying a higher epoch than the
// source's own fences the source.
type ReplAck struct {
	LSN   uint64 `json:"lsn"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplStats describes a node's replication state, carried inside
// StatsResponse.
type ReplStats struct {
	// Role is "primary" on a node that leads or is fenced, "replica" on
	// one that follows.
	Role string `json:"role"`
	// LSN is the node's own position: last durable LSN on a primary,
	// applied LSN on a replica.
	LSN uint64 `json:"lsn"`
	// PrimaryLSN is the replica's last view of the primary's LSN (from
	// records and heartbeats); zero on a primary.
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`
	// Lag is PrimaryLSN - LSN on a replica (records known but not yet
	// applied); zero on a primary.
	Lag int64 `json:"lag,omitempty"`
	// Connected reports whether the replica's stream to the primary is
	// currently up.
	Connected bool `json:"connected,omitempty"`
	// Promoted reports that this node leads an epoch a promotion opened
	// (epoch > 0).
	Promoted bool `json:"promoted,omitempty"`
	// Followers is the number of connected stream sessions on a primary.
	Followers int `json:"followers,omitempty"`
	// MinFollowerLSN is the lowest acknowledged LSN across connected
	// followers on a primary (the WAL retention horizon); zero with no
	// followers.
	MinFollowerLSN uint64 `json:"min_follower_lsn,omitempty"`
	// Epoch is the node's current promotion epoch: its own log's epoch on
	// a primary, the highest observed epoch on a replica. 0 until the
	// first promotion anywhere in the cluster.
	Epoch uint64 `json:"epoch,omitempty"`
	// Durable reports that the node persists its state in its own WAL (a
	// durable primary, or a -follow -data replica) and can therefore serve
	// as a replication source after promotion.
	Durable bool `json:"durable,omitempty"`
	// Fenced reports that the node observed a higher epoch than its own
	// and is refusing writes until it is demoted into the new leader's
	// follower.
	Fenced bool `json:"fenced,omitempty"`
	// Leader is the upstream address a replica streams from.
	Leader string `json:"leader,omitempty"`
	// SyncFollowers is the configured number of follower acks a commit
	// waits for (0 = asynchronous replication).
	SyncFollowers int `json:"sync_followers,omitempty"`
	// SyncTimeouts counts commits that waited the full synchronous-commit
	// timeout and degraded to an async ack.
	SyncTimeouts int64 `json:"sync_timeouts,omitempty"`
	// Resets counts reset-and-rebootstrap cycles on a replica (stream gap,
	// decode/apply failure, or divergence).
	Resets int64 `json:"resets,omitempty"`
	// DiscardedRecords counts locally-held records a replica dropped on
	// divergence resets — the loud report of any unshipped suffix a
	// returning primary had to truncate.
	DiscardedRecords int64 `json:"discarded_records,omitempty"`
}

// DecodeReplStream decodes one primary->follower stream frame (snapshot
// part, record, heartbeat) into its typed struct. It is the follower's
// single entry point for stream frames, and the fuzz target for torn,
// truncated, or hostile streams: any unknown type or undecodable payload
// is an error, never a panic.
func DecodeReplStream(typ byte, payload []byte) (any, error) {
	switch typ {
	case MsgReplSnapFrame:
		var f ReplSnapFrame
		if err := Unmarshal(payload, &f); err != nil {
			return nil, err
		}
		return &f, nil
	case MsgReplRecord:
		var r ReplRecord
		if err := Unmarshal(payload, &r); err != nil {
			return nil, err
		}
		if len(r.Payload) == 0 {
			return nil, fmt.Errorf("wire: repl record lsn %d has no payload", r.LSN)
		}
		return &r, nil
	case MsgReplHeartbeat:
		var h ReplHeartbeat
		if err := Unmarshal(payload, &h); err != nil {
			return nil, err
		}
		return &h, nil
	case MsgError:
		var er ErrorResponse
		if err := Unmarshal(payload, &er); err != nil {
			return nil, err
		}
		return &er, nil
	default:
		return nil, fmt.Errorf("wire: unexpected %s frame in replication stream", TypeName(typ))
	}
}
