package repl

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sopr/internal/wal"
	"sopr/internal/wire"
)

// Run drives the stream: while the node follows, dial its leader, join,
// apply until the session drops, back off, rejoin from the applied LSN.
// While it leads or is fenced, Run parks until Follow (or Close). Run
// returns when Close is called.
func (n *Node) Run() {
	defer close(n.done)
	backoff := n.cfg.ReconnectMin
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		leader, ok := n.upstream()
		if !ok {
			select {
			case <-n.stop:
				return
			case <-n.wake:
			}
			continue
		}
		nc, err := net.DialTimeout("tcp", leader, n.cfg.DialTimeout)
		if err == nil {
			if !n.setConn(nc) {
				return // Close ran while we dialed
			}
			start := n.AppliedLSN()
			err = n.stream(nc)
			_ = nc.Close()
			n.setConn(nil)
			n.setConnected(false)
			if n.AppliedLSN() > start {
				backoff = n.cfg.ReconnectMin // the session made progress
			}
		}
		if _, still := n.upstream(); err != nil && still {
			n.logf("repl: stream to %s: %v", leader, err)
		}
		select {
		case <-n.stop:
			return
		case <-n.wake:
			// Re-pointed, demoted, or promoted: re-evaluate immediately.
			backoff = n.cfg.ReconnectMin
			continue
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, n.cfg.ReconnectMax)
	}
}

// upstream reports the leader address while the node follows.
func (n *Node) upstream() (string, bool) {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.leader, n.role == following
}

func (n *Node) wakeLoop() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// stream runs one session: join at the applied LSN with the local
// history's epoch, then decode and apply frames until the connection
// breaks, the leader goes silent, or the leader turns out to be stale.
func (n *Node) stream(nc net.Conn) error {
	n.smu.Lock()
	from, hist := n.applied, n.epoch
	n.smu.Unlock()
	if err := nc.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
		return err
	}
	if err := wire.WriteMessage(nc, wire.MsgReplJoin, &wire.ReplJoinRequest{FromLSN: from, Epoch: hist}, n.cfg.MaxFrame); err != nil {
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
		n.smu.Lock()
		app, known := n.applied, n.known
		n.smu.Unlock()
		if app == acked && !force {
			return nil
		}
		if err := nc.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
			return err
		}
		if err := wire.WriteMessage(nc, wire.MsgReplAck, &wire.ReplAck{LSN: app, Epoch: known}, n.cfg.MaxFrame); err != nil {
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
		t := time.NewTicker(n.cfg.AckInterval)
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
		if err := nc.SetReadDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
			return err
		}
		typ, payload, err := wire.ReadFrame(nc, n.cfg.MaxFrame)
		if err != nil {
			return fmt.Errorf("read stream: %w", err)
		}
		msg, err := wire.DecodeReplStream(typ, payload)
		if err != nil {
			return err
		}
		n.setConnected(true)
		switch m := msg.(type) {
		case *wire.ErrorResponse:
			switch m.Code {
			case wire.CodeDiverged:
				// Our history forked from this leader's (an unshipped
				// suffix, or state restored from an older backup). Drop
				// everything and rebuild from its checkpoint on rejoin.
				n.reset()
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
				if err := n.installSnapshot(snap); err != nil {
					return err
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
			if m.Epoch != 0 && m.Epoch < n.Epoch() {
				return fmt.Errorf("stream record from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, n.Epoch())
			}
			if err := n.applyRecord(m); err != nil {
				return err
			}
			if err := sendAck(false); err != nil {
				return err
			}
		case *wire.ReplHeartbeat:
			if m.Epoch != 0 && m.Epoch < n.Epoch() {
				return fmt.Errorf("heartbeat from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, n.Epoch())
			}
			n.setPrimaryLSN(m.LSN)
			if err := sendAck(true); err != nil {
				return err
			}
		}
	}
}

// stillFollowing refuses a stream frame once the node has stopped
// following (promoted mid-stream). The caller holds amu.
func (n *Node) stillFollowing(what string) error {
	if _, ok := n.upstream(); !ok {
		return fmt.Errorf("no longer following; discarding %s", what)
	}
	return nil
}

// installSnapshot replaces the database with the image assembled from
// checkpoint parts, exactly as crash recovery loads a checkpoint image. A
// durable node first seeds its own log with the image
// (InstallCheckpoint), so its local history carries the same coverage —
// and epoch table — as the leader's. A failure resets the node.
func (n *Node) installSnapshot(parts []wal.CkptPart) error {
	n.amu.Lock()
	if err := n.stillFollowing("checkpoint image"); err != nil {
		n.amu.Unlock()
		return err
	}
	var ck *wal.Checkpoint
	var err error
	if n.log != nil {
		ck, err = n.log.InstallCheckpoint(parts)
	} else {
		ck, err = wal.AssembleCheckpoint(parts)
	}
	if err == nil {
		err = n.db.Restore(ck)
	}
	if err != nil {
		discarded, rerr := n.resetLocked()
		n.amu.Unlock()
		n.reportReset(discarded, rerr)
		return fmt.Errorf("install snapshot failed; reset for re-bootstrap: %w", err)
	}
	n.smu.Lock()
	if n.log != nil {
		n.epoch = n.log.Epoch()
	} else {
		// The image's epoch is at most the leader's; in-memory followers
		// learn the exact value from in-band epoch records.
		n.epoch = 0
	}
	n.known = max(n.known, n.epoch)
	n.smu.Unlock()
	n.advanceTo(ck.Meta.LSN)
	n.setPrimaryLSN(ck.Meta.LSN)
	n.amu.Unlock()
	n.logf("repl: installed checkpoint image at lsn %d", ck.Meta.LSN)
	return nil
}

// applyRecord replays one WAL record, enforcing LSN continuity. A durable
// node's handle appends the record to its log before applying it
// (log-before-apply: a crash between the two replays the record from the
// local log at restart). An apply failure resets the node: partial
// application of a composed net effect cannot be reconciled in place, but
// a checkpoint re-bootstrap always can.
func (n *Node) applyRecord(m *wire.ReplRecord) error {
	n.amu.Lock()
	if want := n.AppliedLSN() + 1; m.LSN != want {
		n.amu.Unlock()
		return fmt.Errorf("stream gap: got record lsn %d, want %d", m.LSN, want)
	}
	if err := n.stillFollowing(fmt.Sprintf("record lsn %d", m.LSN)); err != nil {
		n.amu.Unlock()
		return err
	}
	rec, err := n.db.ApplyRecord(wal.RawRecord{LSN: m.LSN, Kind: m.Kind, Payload: m.Payload})
	if err != nil {
		discarded, rerr := n.resetLocked()
		n.amu.Unlock()
		n.reportReset(discarded, rerr)
		return fmt.Errorf("apply record lsn %d failed; reset for re-bootstrap: %w", m.LSN, err)
	}
	if rec.Kind == wal.KindEpoch {
		n.smu.Lock()
		n.epoch = max(n.epoch, rec.Epoch.Epoch)
		n.known = max(n.known, rec.Epoch.Epoch)
		n.smu.Unlock()
	}
	n.advanceTo(m.LSN)
	n.setPrimaryLSN(m.LSN)
	n.amu.Unlock()
	if rec.Kind == wal.KindEpoch {
		n.logf("repl: adopted epoch %d at lsn %d", rec.Epoch.Epoch, m.LSN)
	}
	return nil
}

// reset discards all replayed state — including a durable node's local
// log — so the next join starts from LSN 0 (checkpoint bootstrap). The
// discarded records are reported loudly: a returning leader's unshipped
// suffix dies here, visibly.
func (n *Node) reset() {
	n.amu.Lock()
	discarded, err := n.resetLocked()
	n.amu.Unlock()
	n.reportReset(discarded, err)
}

// resetLocked is reset's work, with amu held; the caller reports its
// result with reportReset once amu is released.
func (n *Node) resetLocked() (discarded uint64, err error) {
	n.smu.Lock()
	discarded = n.applied
	n.smu.Unlock()
	if n.log != nil {
		err = n.log.Reset()
	}
	if rerr := n.db.Restore(nil); err == nil {
		err = rerr
	}
	n.smu.Lock()
	n.applied = 0
	n.primaryLSN = 0
	n.epoch = 0
	n.resets++
	n.discarded += int64(discarded)
	n.smu.Unlock()
	return discarded, err
}

func (n *Node) reportReset(discarded uint64, err error) {
	if err != nil {
		n.logf("repl: RESET FAILED: %v (node may be unable to recover locally)", err)
	}
	if discarded > 0 {
		n.logf("repl: RESET discarded %d locally-held records (history diverged from the leader); rebootstrapping from scratch", discarded)
	}
}

// setConn records nc as the stream's connection, which Close closes. Once
// Close has begun it refuses: it closes nc and returns false, since
// Close's own closeConn may already have run and nothing else would
// unblock a stream read on nc. Checking stop under connMu orders the two.
func (n *Node) setConn(nc net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if nc != nil {
		select {
		case <-n.stop:
			_ = nc.Close()
			return false
		default:
		}
	}
	n.conn = nc
	return true
}

func (n *Node) closeConn() {
	n.connMu.Lock()
	if n.conn != nil {
		_ = n.conn.Close()
	}
	n.connMu.Unlock()
}

func (n *Node) setConnected(v bool) {
	n.smu.Lock()
	n.connected = v
	n.smu.Unlock()
}

func (n *Node) setPrimaryLSN(lsn uint64) {
	n.smu.Lock()
	n.primaryLSN = max(n.primaryLSN, lsn)
	n.smu.Unlock()
}

// advanceTo publishes a new applied LSN and wakes read-your-writes
// waiters.
func (n *Node) advanceTo(lsn uint64) {
	n.smu.Lock()
	n.applied = max(n.applied, lsn)
	n.wakeWaitersLocked()
	n.smu.Unlock()
}

// wakeWaitersLocked wakes WaitForLSN callers to re-check; smu is held.
func (n *Node) wakeWaitersLocked() {
	if n.appliedCh != nil {
		close(n.appliedCh)
		n.appliedCh = nil
	}
}
