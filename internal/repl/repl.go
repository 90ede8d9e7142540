// Package repl implements WAL-shipping streaming replication: one durable
// primary ships its write-ahead log to followers over the wire transport,
// with epoch-fenced failover and optional synchronous commit.
//
// The design leans entirely on the durability layer's determinism argument
// (paper Definition 2.1, Section 4): the log records the composed net
// effect of each committed transaction, and replaying net effects with
// rule processing disabled cannot diverge no matter how rule selection
// would have gone. A replica is therefore just a process that runs crash
// recovery forever — it bootstraps from the newest checkpoint image,
// applies the record stream in LSN order with rules disabled, and serves
// queries from the resulting state. Every node holds one
// sopr.SynchronizedDB for its whole life, whatever its role: the stream is
// applied through it (ApplyRecord, Restore), reads go to its lock-free
// snapshot, and a promoted node's writes take its ordinary Exec path.
// Replay never writes the log, so a durable node's log stays attached to
// that handle across promotions and demotions. The primary keeps the
// paper's single write stream (Section 2.1); replicas multiply read
// capacity.
//
// Failover keeps that stream single under partitions with promotion
// epochs (wal.EpochRecord): every promotion appends an epoch record to
// the new leader's log, and the epoch travels on exec requests, stream
// records, and acks. A node that sees a higher epoch than its own fences
// itself — its writes answer the typed FencedError until it is demoted
// (Follow) into the new leader's follower, truncating any unshipped
// suffix (reported loudly in stats). A durable follower (FollowerConfig
// .DataDir) persists the stream into its own wal.Log, so after promotion
// it serves as a WAL-shipping source itself and its former siblings
// re-point to it and resume from their applied LSN.
//
// Source is the leader side: it serves stream sessions from an open
// wal.Log, pinning WAL retention at the slowest connected follower,
// refusing joins from diverged histories (the epoch table makes the check
// exact), and releasing synchronous commits as follower acks arrive.
// Follower is the replica side: a reconnecting apply loop plus the server
// backend (writes are rejected with ErrReadOnly until promotion). Primary
// wraps a durable sopr.DB as the leader-side server backend, adding
// fencing, sync-commit waits, and demotion into a Follower over the same
// handle.
package repl

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/internal/wal"
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

// commitSync is the synchronous-commit ack hold a primary and a promoted
// durable follower share: with n > 0, a write that appended to log is
// acknowledged only once n followers of src have acknowledged its LSN, or
// after timeout, when it degrades to an async ack (Synced=false) and
// counts a timeout.
type commitSync struct {
	log      *wal.Log // nil on an in-memory follower: nothing to wait for
	src      *Source
	n        int
	timeout  time.Duration
	logf     func(format string, args ...any)
	timeouts atomic.Int64
}

// exec runs one write and holds its ack as configured.
func (c *commitSync) exec(run func() (*sopr.Result, error)) (*sopr.Result, error) {
	if c.log == nil || c.src == nil || c.n <= 0 {
		return run()
	}
	before := c.log.NextLSN() - 1
	res, err := run()
	if err != nil || res == nil {
		return res, err
	}
	if lsn := c.log.NextLSN() - 1; lsn > before {
		if c.src.WaitForAcks(lsn, c.n, c.timeout) {
			res.Synced = true
		} else {
			c.timeouts.Add(1)
			c.logf("repl: WARNING sync-commit wait for %d follower ack(s) at lsn %d timed out after %v; acking async",
				c.n, lsn, c.timeout)
		}
	}
	return res, nil
}
