// Package repl implements WAL-shipping streaming replication: a durable
// leader ships its write-ahead log to followers over the wire transport,
// with epoch-fenced failover and optional synchronous commit.
//
// The design leans entirely on the durability layer's determinism argument
// (paper Definition 2.1, Section 4): the log records the composed net
// effect of each committed transaction, and replaying net effects with
// rule processing disabled cannot diverge no matter how rule selection
// would have gone. A follower is therefore just a process that runs crash
// recovery forever — it bootstraps from the newest checkpoint image,
// applies the record stream in LSN order with rules disabled, and serves
// queries from the resulting state.
//
// Every replication node is one Node, whatever its role. It holds one
// sopr.SynchronizedDB for its whole life: the stream is applied through it
// (ApplyRecord, Restore), reads go to its lock-free snapshot, and writes
// take its ordinary Exec path while the node leads. Replay never writes
// the log, so a durable node's log stays attached to that handle across
// every change of role. The leader keeps the paper's single write stream
// (Section 2.1); followers multiply read capacity.
//
// A node is in one of three roles, and each transition is written once:
//
//   - following an upstream address: writes answer ErrReadOnly;
//   - leading: writes run, and with Config.SyncFollowers their acks wait
//     for that many follower acks;
//   - fenced: the node led, then saw a newer promotion epoch; writes
//     answer the typed FencedError.
//
// Promote makes a following or fenced node lead in a new epoch; a
// leading node opens a new epoch only when asked for one above its own.
// ObserveEpoch fences a leader. Follow fences a leader, drains its
// in-flight writes and streams from the new leader, or re-points a
// follower's stream.
//
// Failover keeps the write stream single under partitions with promotion
// epochs (wal.EpochRecord): every promotion appends an epoch record to
// the new leader's log, and the epoch travels on exec requests, stream
// records, and acks. A demoted leader rejoins from its applied LSN, and
// the source truncates (by reset and re-bootstrap) any suffix the new
// leader's history does not share, reporting it loudly in stats. A durable
// node (NewLeader, or NewFollower with Config.DataDir) owns a Source over
// its log, so after a promotion its former siblings re-point to it and
// resume from their applied LSN.
//
// Source is the shipping side: it serves stream sessions from an open
// wal.Log, pinning WAL retention at the slowest connected follower,
// refusing joins from diverged histories (the epoch table makes the check
// exact), and releasing synchronous commits as follower acks arrive.
package repl

import (
	"errors"
	"fmt"
)

// ErrReadOnly rejects writes on a replica. The server maps it to the wire
// protocol's CodeReadOnly so clients can route the write to the primary.
var ErrReadOnly = errors.New("repl: replica is read-only; writes go to the primary")

// LagError reports that a read-your-writes wait timed out: the replica
// had applied Have when the caller needed Need. The server maps it to
// CodeLagging; clients retry on a less-lagged endpoint or the primary.
type LagError struct {
	Need, Have uint64
}

func (e *LagError) Error() string {
	return fmt.Sprintf("repl: replica at lsn %d has not reached lsn %d", e.Have, e.Need)
}

// FencedError rejects a write on a node that observed a promotion epoch
// higher than its own: the cluster elected a new leader and this node's
// writes can no longer join the single ordered stream. The server maps it
// to CodeFenced with the fencing epoch so clients re-probe immediately.
type FencedError struct {
	Epoch uint64 // the epoch that fenced this node
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("repl: node fenced by epoch %d; writes go to the new leader", e.Epoch)
}

// StaleEpochError rejects a request carrying an epoch older than the
// node's own: the caller's cluster view is out of date. The server maps
// it to CodeStaleEpoch with the node's epoch.
type StaleEpochError struct {
	Epoch uint64 // the node's current epoch
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("repl: request epoch is older than node epoch %d", e.Epoch)
}
