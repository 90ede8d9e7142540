package repl

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sopr"
	"sopr/internal/wal"
	"sopr/internal/wire"
)

// FollowerConfig tunes a replica.
type FollowerConfig struct {
	// Primary is the leader soprd's address (host:port). Required; Follow
	// re-points it at failover.
	Primary string
	// DataDir, when set, makes the follower durable: every applied stream
	// record is written into its own wal.Log before the engine applies it,
	// and checkpoint bootstraps seed the log. A durable follower restarts
	// from local state, and after promotion it is a full WAL-shipping
	// source that siblings can re-point to. Empty keeps the follower
	// in-memory (PR 6 behavior: rejoin from LSN 0 after a restart).
	DataDir string
	// FS routes the durable follower's log through an alternate filesystem
	// (fault-injection tests); nil uses the real one.
	FS wal.FS
	// SyncFollowers, on a promoted durable follower, is the number of
	// follower acks each commit waits for before acknowledging (0 = async).
	SyncFollowers int
	// SyncTimeout bounds the synchronous-commit wait (default 2s); on
	// timeout the commit degrades to an async ack with Synced=false.
	SyncTimeout time.Duration
	// Heartbeat configures the follower's own Source (durable mode).
	Heartbeat time.Duration
	// SelectTriggers and MaxRuleTransitions mirror the primary's engine
	// options; they only matter after promotion (replay runs with rules
	// disabled regardless).
	SelectTriggers     bool
	MaxRuleTransitions int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// StreamTimeout is the silence tolerated on the stream before the
	// follower reconnects (default 10s; the primary heartbeats every
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
	// Logf receives follower log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *FollowerConfig) fill() {
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
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
}

// Follower is a replica: a database kept current by replaying the
// leader's WAL stream with rule processing disabled — the same replay
// crash recovery runs, so the state cannot diverge from what the leader
// committed. It implements the server backend interface; writes return
// ErrReadOnly (or FencedError after a fencing step-down) until Promote
// flips the node writable.
//
// An in-memory follower keeps no local log: a restarted one rejoins from
// LSN 0 and the leader bootstraps it from its newest checkpoint image. A
// durable follower (DataDir) is opened with sopr.OpenDurable, so it
// recovers exactly as a primary does, and persists the stream into that
// log; after promotion it appends an epoch record and serves as a
// WAL-shipping source for re-pointed siblings.
type Follower struct {
	cfg    FollowerConfig
	db     *sopr.SynchronizedDB // the node's one handle: applies, reads, promoted writes
	log    *wal.Log             // db's log; nil in-memory
	src    *Source              // non-nil when durable: serves joins over log
	commit *commitSync

	// amu orders the stream's applies and resets against Promote, so the
	// epoch record lands after any in-flight apply and no record is
	// applied once the node is promoted.
	amu sync.Mutex

	// smu guards replication status, separate from amu so stats and
	// read-your-writes waits never queue behind a large apply. Lock order:
	// amu before smu (never the reverse).
	smu        sync.Mutex
	applied    uint64
	primaryLSN uint64
	epoch      uint64 // epoch of the local history (join token)
	known      uint64 // highest epoch observed anywhere (>= epoch)
	fencedBy   uint64 // epoch that forced a step-down; 0 when not fenced
	leader     string // current upstream address
	connected  bool
	promoted   bool
	appliedCh  chan struct{} // closed on each applied/promoted change

	resets    int64 // reset-and-rebootstrap cycles
	discarded int64 // locally-held records dropped by resets

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	wake     chan struct{} // nudges Run out of parking/backoff

	connMu sync.Mutex
	conn   net.Conn // live stream connection, closed by Close/Promote/Follow
}

// NewFollower builds a replica targeting cfg.Primary, recovering local
// state from cfg.DataDir when set. Call Run to start the stream loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	opts := []sopr.Option{sopr.WithMaxRuleTransitions(cfg.MaxRuleTransitions)}
	if cfg.SelectTriggers {
		opts = append(opts, sopr.WithSelectTriggers())
	}
	if cfg.DataDir == "" {
		return newFollower(cfg, sopr.Synchronized(sopr.Open(opts...)), nil, nil, 0), nil
	}
	db, err := sopr.OpenDurable(cfg.DataDir, append(opts, sopr.WithFS(cfg.FS))...)
	if err != nil {
		return nil, fmt.Errorf("repl: open follower: %w", err)
	}
	f := newFollower(cfg, sopr.Synchronized(db), db.WALLog(), nil, 0)
	f.src = NewSource(f.log, SourceConfig{Heartbeat: cfg.Heartbeat, OnFenced: f.ObserveEpoch, Logf: cfg.Logf})
	f.commit.src = f.src
	return f, nil
}

// newFollower wraps a handle — a fresh replica's, or a demoted primary's
// together with its log and Source — as a follower that has seen
// knownEpoch.
func newFollower(cfg FollowerConfig, db *sopr.SynchronizedDB, l *wal.Log, src *Source, knownEpoch uint64) *Follower {
	cfg.fill()
	f := &Follower{
		cfg:    cfg,
		db:     db,
		log:    l,
		src:    src,
		leader: cfg.Primary,
		known:  knownEpoch,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
	f.commit = &commitSync{log: l, src: src, n: cfg.SyncFollowers, timeout: cfg.SyncTimeout, logf: f.logf}
	if l != nil {
		f.applied = l.NextLSN() - 1
		f.primaryLSN = f.applied
		f.epoch = l.Epoch()
		f.known = max(f.known, f.epoch)
	}
	return f
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// ReplSource exposes the follower's own stream source (durable mode): the
// server serves MsgReplJoin sessions through it, which is how re-pointed
// siblings resume from a promoted follower. Nil on an in-memory follower.
func (f *Follower) ReplSource() *Source { return f.src }

// Run drives the stream: dial the current leader, join, apply until the
// session drops, back off, rejoin from the applied LSN. A promoted node
// parks until Follow demotes it (or Close). Run returns when Close is
// called.
func (f *Follower) Run() {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.Promoted() {
			select {
			case <-f.stop:
				return
			case <-f.wake:
			}
			continue
		}
		leader := f.Leader()
		nc, err := net.DialTimeout("tcp", leader, f.cfg.DialTimeout)
		if err == nil {
			f.setConn(nc)
			start := f.AppliedLSN()
			err = f.stream(nc)
			_ = nc.Close()
			f.setConn(nil)
			f.setConnected(false)
			if f.AppliedLSN() > start {
				backoff = f.cfg.ReconnectMin // the session made progress
			}
		}
		if err != nil && !f.Promoted() {
			f.logf("repl: stream to %s: %v", leader, err)
		}
		select {
		case <-f.stop:
			return
		case <-f.wake:
			// Re-pointed, demoted, or promoted: re-evaluate immediately.
			backoff = f.cfg.ReconnectMin
			continue
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

func (f *Follower) wakeLoop() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// stream runs one session: join at the applied LSN with the local
// history's epoch, then decode and apply frames until the connection
// breaks, the leader goes silent, or the leader turns out to be stale.
func (f *Follower) stream(nc net.Conn) error {
	f.smu.Lock()
	from, hist := f.applied, f.epoch
	f.smu.Unlock()
	if err := nc.SetWriteDeadline(time.Now().Add(f.cfg.StreamTimeout)); err != nil {
		return err
	}
	if err := wire.WriteMessage(nc, wire.MsgReplJoin, &wire.ReplJoinRequest{FromLSN: from, Epoch: hist}, f.cfg.MaxFrame); err != nil {
		return fmt.Errorf("join: %w", err)
	}

	var snap []wal.CkptPart // in-flight checkpoint bootstrap

	// Acks share the connection with this loop's reads only, but two
	// writers exist: the forced acks below and the idle ticker goroutine.
	var ackMu sync.Mutex
	acked := from
	sendAck := func(force bool) error {
		ackMu.Lock()
		defer ackMu.Unlock()
		f.smu.Lock()
		app, known := f.applied, f.known
		f.smu.Unlock()
		if app == acked && !force {
			return nil
		}
		if err := nc.SetWriteDeadline(time.Now().Add(f.cfg.StreamTimeout)); err != nil {
			return err
		}
		if err := wire.WriteMessage(nc, wire.MsgReplAck, &wire.ReplAck{LSN: app, Epoch: known}, f.cfg.MaxFrame); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		acked = app
		return nil
	}

	// The ack ticker keeps the source's retention pin moving even when no
	// new frame prompts an ack — without it, rapid applies followed by an
	// idle stream leave the last rate-limited ack unsent until the next
	// heartbeat, pinning WAL segments the whole while.
	tickStop := make(chan struct{})
	defer close(tickStop)
	go func() {
		t := time.NewTicker(f.cfg.AckInterval)
		defer t.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-t.C:
				if err := sendAck(false); err != nil {
					_ = nc.Close() // surface on the main read loop
					return
				}
			}
		}
	}()

	for {
		if err := nc.SetReadDeadline(time.Now().Add(f.cfg.StreamTimeout)); err != nil {
			return err
		}
		typ, payload, err := wire.ReadFrame(nc, f.cfg.MaxFrame)
		if err != nil {
			return fmt.Errorf("read stream: %w", err)
		}
		msg, err := wire.DecodeReplStream(typ, payload)
		if err != nil {
			return err
		}
		f.setConnected(true)
		switch m := msg.(type) {
		case *wire.ErrorResponse:
			switch m.Code {
			case wire.CodeDiverged:
				// Our history forked from this leader's (an unshipped
				// suffix, or state restored from an older backup). Drop
				// everything and rebuild from its checkpoint on rejoin.
				f.reset()
				return fmt.Errorf("leader reports divergence (%s); reset for re-bootstrap", m.Message)
			case wire.CodeFenced:
				// We fenced the source: it is staler than our own history.
				// Disconnect; Follow will re-point us at the real leader.
				return fmt.Errorf("source is stale (our epoch fences it): %s", m.Message)
			}
			return fmt.Errorf("leader refused stream: %s: %s", m.Code, m.Message)
		case *wire.ReplSnapFrame:
			snap = append(snap, wal.CkptPart{Kind: m.Kind, Payload: m.Payload})
			if m.Kind == wal.KindCkptEnd {
				if err := f.installSnapshot(snap); err != nil {
					return fmt.Errorf("install snapshot failed; reset for re-bootstrap: %w", err)
				}
				snap = nil
				if err := sendAck(true); err != nil {
					return err
				}
			}
		case *wire.ReplRecord:
			if snap != nil {
				return fmt.Errorf("record lsn %d arrived inside a snapshot", m.LSN)
			}
			if m.Epoch != 0 && m.Epoch < f.KnownEpoch() {
				return fmt.Errorf("stream record from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, f.KnownEpoch())
			}
			if err := f.applyRecord(m); err != nil {
				return err
			}
			if err := sendAck(false); err != nil {
				return err
			}
		case *wire.ReplHeartbeat:
			if m.Epoch != 0 && m.Epoch < f.KnownEpoch() {
				return fmt.Errorf("heartbeat from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, f.KnownEpoch())
			}
			f.setPrimaryLSN(m.LSN)
			if err := sendAck(true); err != nil {
				return err
			}
		}
	}
}

// installSnapshot replaces the database with the image assembled from
// checkpoint parts, exactly as crash recovery loads a checkpoint image. A
// durable follower first seeds its own log with the image
// (InstallCheckpoint), so its local history carries the same coverage —
// and epoch table — as the leader's. A failure resets the follower.
func (f *Follower) installSnapshot(parts []wal.CkptPart) error {
	f.amu.Lock()
	var ck *wal.Checkpoint
	var err error
	if f.log != nil {
		ck, err = f.log.InstallCheckpoint(parts)
	} else {
		ck, err = wal.AssembleCheckpoint(parts)
	}
	if err == nil {
		err = f.db.Restore(ck)
	}
	if err != nil {
		discarded, rerr := f.resetLocked()
		f.amu.Unlock()
		f.reportReset(discarded, rerr)
		return err
	}
	f.smu.Lock()
	if f.log != nil {
		f.epoch = f.log.Epoch()
	} else {
		// The image's epoch is at most the leader's; in-memory followers
		// learn the exact value from in-band epoch records.
		f.epoch = 0
	}
	f.known = max(f.known, f.epoch)
	f.smu.Unlock()
	f.advanceTo(ck.Meta.LSN)
	f.setPrimaryLSN(ck.Meta.LSN)
	f.amu.Unlock()
	f.logf("repl: installed checkpoint image at lsn %d", ck.Meta.LSN)
	return nil
}

// applyRecord replays one WAL record, enforcing LSN continuity. A durable
// follower's handle appends the record to its log before applying it
// (log-before-apply: a crash between the two replays the record from the
// local log at restart). An apply failure resets the follower: partial
// application of a composed net effect cannot be reconciled in place, but
// a checkpoint re-bootstrap always can.
func (f *Follower) applyRecord(m *wire.ReplRecord) error {
	f.amu.Lock()
	if want := f.AppliedLSN() + 1; m.LSN != want {
		f.amu.Unlock()
		return fmt.Errorf("stream gap: got record lsn %d, want %d", m.LSN, want)
	}
	if f.Promoted() {
		f.amu.Unlock()
		return fmt.Errorf("promoted mid-stream; discarding record lsn %d", m.LSN)
	}
	rec, err := f.db.ApplyRecord(wal.RawRecord{LSN: m.LSN, Kind: m.Kind, Payload: m.Payload})
	if err != nil {
		discarded, rerr := f.resetLocked()
		f.amu.Unlock()
		f.reportReset(discarded, rerr)
		return fmt.Errorf("apply record lsn %d failed; reset for re-bootstrap: %w", m.LSN, err)
	}
	if rec.Kind == wal.KindEpoch {
		f.smu.Lock()
		f.epoch = max(f.epoch, rec.Epoch.Epoch)
		f.known = max(f.known, rec.Epoch.Epoch)
		f.smu.Unlock()
	}
	f.advanceTo(m.LSN)
	f.setPrimaryLSN(m.LSN)
	f.amu.Unlock()
	if rec.Kind == wal.KindEpoch {
		f.logf("repl: adopted epoch %d at lsn %d", rec.Epoch.Epoch, m.LSN)
	}
	return nil
}

// reset discards all replayed state — including a durable follower's
// local log — so the next join starts from LSN 0 (checkpoint bootstrap).
// The discarded records are reported loudly: a returning primary's
// unshipped suffix dies here, visibly.
func (f *Follower) reset() {
	f.amu.Lock()
	discarded, err := f.resetLocked()
	f.amu.Unlock()
	f.reportReset(discarded, err)
}

// resetLocked is reset's work, with amu held; the caller reports its
// result with reportReset once amu is released.
func (f *Follower) resetLocked() (discarded uint64, err error) {
	f.smu.Lock()
	discarded = f.applied
	f.smu.Unlock()
	if f.log != nil {
		err = f.log.Reset()
	}
	if rerr := f.db.Restore(nil); err == nil {
		err = rerr
	}
	f.smu.Lock()
	f.applied = 0
	f.primaryLSN = 0
	f.epoch = 0
	f.resets++
	f.discarded += int64(discarded)
	f.smu.Unlock()
	return discarded, err
}

func (f *Follower) reportReset(discarded uint64, err error) {
	if err != nil {
		f.logf("repl: RESET FAILED: %v (follower may be unable to recover locally)", err)
	}
	if discarded > 0 {
		f.logf("repl: RESET discarded %d locally-held records (history diverged from the leader); rebootstrapping from scratch", discarded)
	}
}

func (f *Follower) setConn(nc net.Conn) {
	f.connMu.Lock()
	f.conn = nc
	f.connMu.Unlock()
}

func (f *Follower) closeConn() {
	f.connMu.Lock()
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.connMu.Unlock()
}

func (f *Follower) setConnected(v bool) {
	f.smu.Lock()
	f.connected = v
	f.smu.Unlock()
}

func (f *Follower) setPrimaryLSN(lsn uint64) {
	f.smu.Lock()
	if lsn > f.primaryLSN {
		f.primaryLSN = lsn
	}
	f.smu.Unlock()
}

// advanceTo publishes a new applied LSN and wakes read-your-writes
// waiters.
func (f *Follower) advanceTo(lsn uint64) {
	f.smu.Lock()
	if lsn > f.applied {
		f.applied = lsn
	}
	if f.appliedCh != nil {
		close(f.appliedCh)
		f.appliedCh = nil
	}
	f.smu.Unlock()
}

// AppliedLSN reports the last LSN this follower has applied.
func (f *Follower) AppliedLSN() uint64 {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.applied
}

// CurrentLSN implements the server's LSN-token capability: on a replica
// it is the applied LSN.
func (f *Follower) CurrentLSN() uint64 { return f.AppliedLSN() }

// Leader reports the current upstream address.
func (f *Follower) Leader() string {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.leader
}

// KnownEpoch reports the highest promotion epoch this node has observed.
func (f *Follower) KnownEpoch() uint64 {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.known
}

// Epoch implements the server's epoch-gate capability.
func (f *Follower) Epoch() uint64 { return f.KnownEpoch() }

// ObserveEpoch records that epoch e exists somewhere in the cluster. A
// promoted node seeing an epoch above its own steps down on the spot: it
// stops accepting writes (FencedError) until Follow re-integrates it
// under the new leader. An in-memory promoted node also resets — its
// post-promotion state was never shipped anywhere and cannot be
// reconciled.
func (f *Follower) ObserveEpoch(e uint64) {
	f.smu.Lock()
	if e <= f.known {
		f.smu.Unlock()
		return
	}
	f.known = e
	steppedDown := f.promoted
	if steppedDown {
		f.promoted = false
		f.fencedBy = e
	}
	f.smu.Unlock()
	if steppedDown {
		f.logf("repl: FENCED by epoch %d; stepping down (writes refused until re-pointed at the new leader)", e)
		if f.log == nil {
			f.reset()
		}
		f.closeConn()
		f.wakeLoop()
	}
}

// WaitForLSN blocks until the follower has applied lsn, the timeout
// elapses (LagError), or the node is promoted (a promoted node is the
// freshest state there is).
func (f *Follower) WaitForLSN(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.smu.Lock()
		if f.promoted || f.applied >= lsn {
			f.smu.Unlock()
			return nil
		}
		have := f.applied
		if f.appliedCh == nil {
			f.appliedCh = make(chan struct{})
		}
		ch := f.appliedCh
		f.smu.Unlock()
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

// Promoted reports whether this node currently accepts writes.
func (f *Follower) Promoted() bool {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.promoted
}

// Promote detaches the node from its leader and makes it writable in a
// new epoch: max(epoch, highest seen + 1), so epochs never move backward.
// A durable follower appends the epoch record to its own log — from here
// on it is a complete primary: commits are logged, siblings can join its
// Source, sync-commit applies. An in-memory follower promotes too (rules
// re-enabled, logical-clock LSNs) but ships no WAL: a failover stopgap,
// its siblings go stale. The returned epoch is the one actually opened.
func (f *Follower) Promote(epoch uint64) (uint64, error) {
	f.amu.Lock() // order the epoch record after any in-flight apply
	f.smu.Lock()
	if f.promoted {
		cur := f.known
		f.smu.Unlock()
		f.amu.Unlock()
		return cur, nil
	}
	newEpoch := max(f.known+1, epoch)
	f.smu.Unlock()
	if f.log != nil {
		if _, err := f.log.AppendEpoch(newEpoch); err != nil {
			f.amu.Unlock()
			return 0, fmt.Errorf("repl: promote: %w", err)
		}
	}
	f.smu.Lock()
	f.promoted = true
	f.fencedBy = 0
	f.epoch = newEpoch
	f.known = newEpoch
	if f.log != nil {
		f.applied = max(f.applied, f.log.NextLSN()-1)
	}
	if f.appliedCh != nil {
		close(f.appliedCh) // wake read-your-writes waiters
		f.appliedCh = nil
	}
	f.smu.Unlock()
	f.amu.Unlock()
	f.closeConn()
	f.wakeLoop()
	f.logf("repl: PROMOTED at lsn %d, epoch %d (durable=%v)", f.AppliedLSN(), newEpoch, f.log != nil)
	return newEpoch, nil
}

// Follow makes this node a follower of leader in the given epoch. On a
// replica it re-points the stream (the failover path for a promoted
// durable sibling: resume from the applied LSN instead of going stale).
// On a promoted node it is a demotion order and requires a strictly newer
// epoch; the local log keeps only the prefix the new leader shares — any
// unshipped suffix is discarded on the divergence reset that follows.
func (f *Follower) Follow(leader string, epoch uint64) error {
	f.smu.Lock()
	if epoch < f.known || (f.promoted && epoch <= f.known) {
		cur := f.known
		f.smu.Unlock()
		return &StaleEpochError{Epoch: cur}
	}
	wasPromoted := f.promoted
	f.promoted = false
	f.fencedBy = 0
	if epoch > f.known {
		f.known = epoch
	}
	oldLeader := f.leader
	f.leader = leader
	f.smu.Unlock()
	if wasPromoted {
		f.logf("repl: DEMOTED into follower of %s at epoch %d; any unshipped suffix will be truncated on rejoin", leader, epoch)
		if f.log == nil {
			// An in-memory promoted node's post-promotion state was never
			// shipped; only a full rebuild can align it with the new leader.
			f.reset()
		}
	} else if oldLeader != leader {
		f.logf("repl: re-pointing stream from %s to %s (epoch %d)", oldLeader, leader, epoch)
	}
	f.closeConn()
	f.wakeLoop()
	return nil
}

// Checkpoint writes the follower's state as a checkpoint image into its
// own log (durable mode), pruning shipped segments and refreshing the
// bootstrap image it can serve to siblings.
func (f *Follower) Checkpoint() error { return f.db.Checkpoint() }

// Close stops the stream loop and waits for it to exit, then closes the
// database's log (durable mode).
func (f *Follower) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.closeConn()
	<-f.done
	if err := f.db.Close(); err != nil {
		f.logf("repl: close follower log: %v", err)
	}
}

// --- server backend ---

// Exec rejects writes until the node is promoted (FencedError when the
// refusal is due to a fencing step-down); after promotion it executes the
// script with full rule processing, like a primary, and — durable, with
// SyncFollowers configured — holds the ack until enough followers confirm.
func (f *Follower) Exec(src string) (*sopr.Result, error) {
	return f.write(func() (*sopr.Result, error) { return f.db.Exec(src) })
}

// ExecBatch runs a batch of statements as one operation block (see
// sopr.DB.ExecBatch) behind the same gate and ack hold as Exec.
func (f *Follower) ExecBatch(stmts []string) (*sopr.Result, error) {
	return f.write(func() (*sopr.Result, error) { return f.db.ExecBatch(stmts) })
}

func (f *Follower) write(run func() (*sopr.Result, error)) (*sopr.Result, error) {
	f.smu.Lock()
	promoted, fencedBy := f.promoted, f.fencedBy
	f.smu.Unlock()
	if !promoted {
		if fencedBy != 0 {
			return nil, &FencedError{Epoch: fencedBy}
		}
		return nil, ErrReadOnly
	}
	res, err := f.commit.exec(run)
	if f.log != nil {
		f.advanceTo(f.log.NextLSN() - 1)
	} else {
		// Keep the logical clock moving: each write advances the promoted
		// node's LSN so read-your-writes tokens issued here are strictly
		// newer than anything the old primary's other replicas have
		// applied — an in-memory promoted node ships no WAL, so those
		// replicas are permanently stale and must answer such tokens with
		// CodeLagging, not old data.
		f.advanceTo(f.AppliedLSN() + 1)
	}
	return res, err
}

// Query runs a read-only query against the replayed state, lock-free.
func (f *Follower) Query(src string) (*sopr.Rows, error) { return f.db.Query(src) }

// Dump writes the replayed state as an executable script, lock-free.
func (f *Follower) Dump(w io.Writer) error { return f.db.Dump(w) }

// Stats reports the database's counters, lock-free.
func (f *Follower) Stats() sopr.Stats { return f.db.Stats() }

// ReplStats reports the node's replication position, epoch, and lag.
func (f *Follower) ReplStats() *wire.ReplStats {
	f.smu.Lock()
	st := &wire.ReplStats{
		Role:             "replica",
		LSN:              f.applied,
		PrimaryLSN:       f.primaryLSN,
		Connected:        f.connected,
		Promoted:         f.promoted,
		Epoch:            f.known,
		Durable:          f.log != nil,
		Fenced:           f.fencedBy != 0,
		Leader:           f.leader,
		Resets:           f.resets,
		DiscardedRecords: f.discarded,
		SyncTimeouts:     f.commit.timeouts.Load(),
	}
	if f.primaryLSN > f.applied {
		st.Lag = int64(f.primaryLSN - f.applied)
	}
	promoted := f.promoted
	f.smu.Unlock()
	if promoted {
		st.Role = "primary"
		st.Leader = ""
		st.PrimaryLSN, st.Lag = 0, 0
		if f.src != nil {
			ss := f.src.Stats()
			st.Followers, st.MinFollowerLSN = ss.Followers, ss.MinFollowerLSN
			st.SyncFollowers = f.cfg.SyncFollowers
		}
	}
	return st
}
