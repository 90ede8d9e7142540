package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/internal/wal"
	"sopr/internal/wire"
)

// Config tunes a replication node. Zero values select the defaults.
type Config struct {
	// DataDir, when set, makes a NewFollower node durable: it is opened
	// with sopr.OpenDurable, so it recovers exactly as a leader does,
	// every applied stream record is written into its own log before the
	// engine applies it, and checkpoint bootstraps seed the log. A durable
	// follower restarts from local state and, once it leads, is a
	// WAL-shipping source siblings can re-point to. Empty keeps the
	// follower in memory: a restart rejoins from LSN 0. NewLeader ignores
	// it (its database is already open).
	DataDir string
	// FS routes a durable follower's log through an alternate filesystem
	// (fault-injection tests); nil uses the real one.
	FS wal.FS
	// SelectTriggers and MaxRuleTransitions are the engine options of the
	// database NewFollower opens; they only matter once the node leads
	// (replay runs with rules disabled regardless).
	SelectTriggers     bool
	MaxRuleTransitions int
	// SyncFollowers is the number of follower acks each commit waits for
	// while the node leads (0 = asynchronous replication).
	SyncFollowers int
	// SyncTimeout bounds the synchronous-commit wait (default 2s); on
	// timeout the commit degrades to an async ack: the write is durable
	// locally and the response carries Synced=false.
	SyncTimeout time.Duration
	// Heartbeat is how often the node's Source sends a heartbeat on an
	// idle stream (default 1s).
	Heartbeat time.Duration
	// DialTimeout bounds each connection attempt to the leader (default 5s).
	DialTimeout time.Duration
	// StreamTimeout is the silence tolerated on the stream before the
	// follower reconnects (default 10s; the leader heartbeats every
	// second when idle).
	StreamTimeout time.Duration
	// AckInterval is the progress-ack cadence (default 200ms). Acks are
	// sent on this timer whenever the applied LSN moved — including when
	// the stream then went idle — so the source's retention pin releases
	// promptly instead of waiting for the next record or heartbeat.
	AckInterval time.Duration
	// ReconnectMin/ReconnectMax bound the reconnect backoff
	// (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// MaxFrame caps inbound stream frames (default wire.ReplMaxFrame).
	MaxFrame int
	// Logf receives node log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 10 * time.Second
	}
	if c.AckInterval <= 0 {
		c.AckInterval = 200 * time.Millisecond
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.ReplMaxFrame
	}
}

// role is a node's place in the single write stream.
type role int

const (
	following role = iota // streams from leader; writes answer ErrReadOnly
	leading               // accepts writes
	fenced                // led, then saw a newer epoch; writes answer FencedError
)

// Node is one replication node and the server backend in front of it. It
// serves reads from its database's snapshot whatever its role, runs
// writes while it leads, and replays its leader's WAL stream while it
// follows — with rule processing disabled, the same replay crash recovery
// runs, so the state cannot diverge from what the leader committed.
type Node struct {
	cfg Config
	db  *sopr.SynchronizedDB // the node's one handle: applies, reads, writes
	log *wal.Log             // db's log; nil in memory
	src *Source              // serves joins over log; nil in memory

	syncTimeouts atomic.Int64

	// amu orders the stream's applies and resets against the role
	// transitions, so an epoch record lands after any in-flight apply and
	// no record is applied once the node stops following.
	amu sync.Mutex

	// writes counts in-flight writes; Follow drains it after fencing, so
	// the stream never races a still-running Exec.
	writes sync.WaitGroup

	// smu guards the role and replication status, separate from amu so
	// stats and read-your-writes waits never queue behind a large apply.
	// Lock order: amu before smu (never the reverse).
	smu        sync.Mutex
	role       role
	leader     string // upstream address while following
	fencedBy   uint64 // the epoch that fenced the node (role fenced)
	applied    uint64 // position: last applied, or written while leading
	primaryLSN uint64
	epoch      uint64 // epoch of the local history (join token)
	known      uint64 // highest epoch observed anywhere (>= epoch)
	connected  bool
	appliedCh  chan struct{} // closed on each applied change or promotion
	resets     int64         // reset-and-rebootstrap cycles
	discarded  int64         // locally-held records dropped by resets

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	wake     chan struct{} // nudges Run out of parking/backoff

	connMu sync.Mutex
	conn   net.Conn // live stream connection, closed by Close/Promote/Follow
}

// NewLeader wraps an open durable database as a leading node and starts
// its stream loop, parked until Follow demotes the node. The database
// must have a write-ahead log (OpenDurable); it must not be used directly
// afterwards.
func NewLeader(db *sopr.DB, cfg Config) (*Node, error) {
	if db.WALLog() == nil {
		return nil, errors.New("repl: a leader requires a durable database (no WAL attached)")
	}
	n := newNode(db, leading, "", cfg)
	go n.Run()
	return n, nil
}

// NewFollower builds a node following leader, recovering local state from
// cfg.DataDir when set. Call Run to start the stream loop.
func NewFollower(leader string, cfg Config) (*Node, error) {
	opts := []sopr.Option{sopr.WithMaxRuleTransitions(cfg.MaxRuleTransitions)}
	if cfg.SelectTriggers {
		opts = append(opts, sopr.WithSelectTriggers())
	}
	if cfg.DataDir == "" {
		return newNode(sopr.Open(opts...), following, leader, cfg), nil
	}
	db, err := sopr.OpenDurable(cfg.DataDir, append(opts, sopr.WithFS(cfg.FS))...)
	if err != nil {
		return nil, fmt.Errorf("repl: open follower: %w", err)
	}
	return newNode(db, following, leader, cfg), nil
}

func newNode(db *sopr.DB, r role, leader string, cfg Config) *Node {
	cfg.fill()
	n := &Node{
		cfg:    cfg,
		db:     sopr.Synchronized(db),
		log:    db.WALLog(),
		role:   r,
		leader: leader,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
	if n.log != nil {
		n.src = newSource(n.log, cfg.Heartbeat, n.ObserveEpoch, n.logf)
		n.applied = n.log.NextLSN() - 1
		n.primaryLSN = n.applied
		n.epoch = n.log.Epoch()
		n.known = n.epoch
	}
	return n
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ReplSource exposes the node's stream source for MsgReplJoin sessions —
// which is how re-pointed siblings resume from a promoted durable
// follower. Nil in memory.
func (n *Node) ReplSource() *Source { return n.src }

// Promote makes the node lead in a new epoch: max(epoch, highest seen +
// 1), so epochs never move backward. A leading node asked for an epoch at
// or below its own keeps its current one. A durable node appends the epoch
// record to its log — from here on commits are logged, siblings can join
// its Source, and sync commit applies. An in-memory node leads too (rules
// re-enabled, logical-clock LSNs) but ships no WAL: a failover stopgap,
// its siblings go stale. It returns the epoch the node leads in.
func (n *Node) Promote(epoch uint64) (uint64, error) {
	n.amu.Lock() // order the epoch record after any in-flight apply
	defer n.amu.Unlock()
	n.smu.Lock()
	if n.role == leading && epoch <= n.known {
		cur := n.known
		n.smu.Unlock()
		return cur, nil
	}
	newEpoch := max(n.known+1, epoch)
	n.smu.Unlock()
	if n.log != nil {
		if _, err := n.log.AppendEpoch(newEpoch); err != nil {
			return 0, fmt.Errorf("repl: promote: %w", err)
		}
	}
	n.smu.Lock()
	n.role, n.fencedBy = leading, 0
	n.epoch, n.known = newEpoch, newEpoch
	if n.log != nil {
		n.applied = max(n.applied, n.log.NextLSN()-1)
	}
	n.wakeWaitersLocked() // a leader satisfies every read-your-writes wait
	lsn := n.applied
	n.smu.Unlock()
	n.closeConn()
	n.wakeLoop()
	n.logf("repl: PROMOTED at lsn %d, epoch %d (durable=%v)", lsn, newEpoch, n.log != nil)
	return newEpoch, nil
}

// ObserveEpoch records that epoch e exists somewhere in the cluster. A
// leader seeing an epoch above its own is fenced on the spot: its writes
// refuse with FencedError until Follow re-points it at the new leader. A
// follower only records the epoch.
func (n *Node) ObserveEpoch(e uint64) {
	n.smu.Lock()
	if e <= n.known {
		n.smu.Unlock()
		return
	}
	n.known = e
	wasLeader := n.role != following
	if wasLeader {
		n.role, n.fencedBy = fenced, e
	}
	n.smu.Unlock()
	if wasLeader {
		n.logf("repl: FENCED by epoch %d; refusing writes until re-pointed at the new leader", e)
	}
}

// Follow makes this node a follower of leader in the given epoch. A
// following node re-points its stream and resumes from its applied LSN.
// A leader needs a strictly newer epoch, a fenced node at least its
// fencing one; either is fenced first, its in-flight writes drain, and it
// rejoins the new leader from its applied LSN — any unshipped suffix is
// discarded on the divergence reset that follows. An in-memory leader's
// writes were never shipped, so it resets at once.
func (n *Node) Follow(leader string, epoch uint64) error {
	n.amu.Lock()
	defer n.amu.Unlock()
	n.smu.Lock()
	if epoch < n.known || (n.role == leading && epoch == n.known) {
		cur := n.known
		n.smu.Unlock()
		return &StaleEpochError{Epoch: cur}
	}
	n.known = epoch
	wasLeader, oldLeader := n.role != following, n.leader
	if wasLeader {
		// Fence before draining: no new write can start, and none is
		// running once the drain settles — the stream takes the database
		// cold.
		n.role, n.fencedBy = fenced, epoch
	}
	n.smu.Unlock()
	if wasLeader {
		n.writes.Wait()
		if n.log == nil {
			discarded, err := n.resetLocked()
			defer n.reportReset(discarded, err)
		}
	}
	n.smu.Lock()
	n.role, n.fencedBy, n.leader = following, 0, leader
	if wasLeader && n.log != nil {
		n.applied = n.log.NextLSN() - 1
		n.primaryLSN = n.applied
		n.epoch = n.log.Epoch()
	}
	n.smu.Unlock()
	if wasLeader {
		n.logf("repl: DEMOTED into follower of %s at epoch %d; any unshipped suffix will be truncated on rejoin", leader, epoch)
	} else if oldLeader != leader {
		n.logf("repl: re-pointing stream from %s to %s (epoch %d)", oldLeader, leader, epoch)
	}
	n.closeConn()
	n.wakeLoop()
	return nil
}

// Exec runs a write script with full rule processing while the node
// leads, holding the ack as Config.SyncFollowers asks. A follower refuses
// with ErrReadOnly, a fenced node with FencedError.
func (n *Node) Exec(src string) (*sopr.Result, error) {
	return n.write(func() (*sopr.Result, error) { return n.db.Exec(src) })
}

// ExecBatch runs a batch of statements as one operation block (see
// sopr.DB.ExecBatch) behind the same gate and ack hold as Exec: the whole
// block is one commit record, so a sync-commit cluster pays one
// follower-ack wait per batch instead of per statement.
func (n *Node) ExecBatch(stmts []string) (*sopr.Result, error) {
	return n.write(func() (*sopr.Result, error) { return n.db.ExecBatch(stmts) })
}

// write is the one write gate: the role check, in-flight accounting (for
// Follow's drain), the position advance, and the synchronous-commit hold.
func (n *Node) write(run func() (*sopr.Result, error)) (*sopr.Result, error) {
	n.smu.Lock()
	switch n.role {
	case following:
		n.smu.Unlock()
		return nil, ErrReadOnly
	case fenced:
		e := n.fencedBy
		n.smu.Unlock()
		return nil, &FencedError{Epoch: e}
	}
	n.writes.Add(1)
	n.smu.Unlock()
	defer n.writes.Done()
	if n.log == nil {
		res, err := run()
		// Keep the logical clock moving: each write advances an in-memory
		// leader's LSN so read-your-writes tokens issued here are strictly
		// newer than anything the old leader's other replicas have applied
		// — this node ships no WAL, so those replicas are permanently stale
		// and must answer such tokens with CodeLagging, not old data.
		n.smu.Lock()
		n.applied++
		n.wakeWaitersLocked()
		n.smu.Unlock()
		return res, err
	}
	before := n.log.NextLSN() - 1
	res, err := run()
	lsn := n.log.NextLSN() - 1
	n.advanceTo(lsn)
	if err != nil || res == nil || lsn == before || n.cfg.SyncFollowers <= 0 {
		return res, err
	}
	if n.src.WaitForAcks(lsn, n.cfg.SyncFollowers, n.cfg.SyncTimeout) {
		res.Synced = true
	} else {
		n.syncTimeouts.Add(1)
		n.logf("repl: WARNING sync-commit wait for %d follower ack(s) at lsn %d timed out after %v; acking async",
			n.cfg.SyncFollowers, lsn, n.cfg.SyncTimeout)
	}
	return res, nil
}

// Query runs a read-only query against the committed snapshot, lock-free.
func (n *Node) Query(src string) (*sopr.Rows, error) { return n.db.Query(src) }

// Dump writes the committed state as an executable script, lock-free.
func (n *Node) Dump(w io.Writer) error { return n.db.Dump(w) }

// Stats reports the database's counters, lock-free.
func (n *Node) Stats() sopr.Stats { return n.db.Stats() }

// AppliedLSN reports the node's position: the last LSN it applied from
// the stream or wrote while leading.
func (n *Node) AppliedLSN() uint64 {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.applied
}

// CurrentLSN is AppliedLSN: the read-your-writes token the server attaches
// to exec responses.
func (n *Node) CurrentLSN() uint64 { return n.AppliedLSN() }

// Leader reports the upstream address the node follows, or last followed.
func (n *Node) Leader() string {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.leader
}

// Epoch reports the highest promotion epoch this node has observed.
func (n *Node) Epoch() uint64 {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.known
}

// Promoted reports whether the node currently leads (accepts writes).
func (n *Node) Promoted() bool {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.role == leading
}

// WaitForLSN blocks until the node has applied lsn, the timeout elapses
// (LagError), or the node leads (a leader is the freshest state there is).
func (n *Node) WaitForLSN(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n.smu.Lock()
		if n.role == leading || n.applied >= lsn {
			n.smu.Unlock()
			return nil
		}
		have := n.applied
		if n.appliedCh == nil {
			n.appliedCh = make(chan struct{})
		}
		ch := n.appliedCh
		n.smu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return &LagError{Need: lsn, Have: have}
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// Checkpoint writes the node's state as a checkpoint image into its log,
// pruning shipped segments and refreshing the bootstrap image its Source
// serves. An in-memory node has no log to write into.
func (n *Node) Checkpoint() error { return n.db.Checkpoint() }

// Close stops the stream loop, waits for it to exit, then closes the
// database. A NewFollower node must have been started with Run.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.closeConn()
	<-n.done
	return n.db.Close()
}

// ReplStats reports the node's replication state. A leading or fenced
// node reports role "primary" with its source's followers; a following
// one reports "replica" with its upstream, connection and lag.
func (n *Node) ReplStats() *wire.ReplStats {
	n.smu.Lock()
	r := n.role
	st := &wire.ReplStats{
		Role:             "replica",
		LSN:              n.applied,
		Epoch:            n.known,
		Durable:          n.log != nil,
		Resets:           n.resets,
		DiscardedRecords: n.discarded,
		SyncTimeouts:     n.syncTimeouts.Load(),
	}
	if r == following {
		st.PrimaryLSN, st.Connected, st.Leader = n.primaryLSN, n.connected, n.leader
		if n.primaryLSN > n.applied {
			st.Lag = int64(n.primaryLSN - n.applied)
		}
	}
	n.smu.Unlock()
	if r == following {
		return st
	}
	st.Role = "primary"
	st.Fenced = r == fenced
	st.Promoted = r == leading && st.Epoch > 0 // leads an epoch a promotion opened
	st.SyncFollowers = n.cfg.SyncFollowers
	if n.src != nil {
		ss := n.src.Stats()
		st.Followers, st.MinFollowerLSN = ss.Followers, ss.MinFollowerLSN
	}
	return st
}
