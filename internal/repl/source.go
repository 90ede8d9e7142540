package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sopr/internal/wal"
	"sopr/internal/wire"
)

const (
	// sourceWriteTimeout bounds each stream frame write.
	sourceWriteTimeout = 30 * time.Second
	// sourceBatchBytes caps the payload bytes read per ReadRaw call.
	sourceBatchBytes = 1 << 20
)

// Source serves WAL stream sessions from an open log. One Source is shared
// by every follower connection; each ServeConn call runs one session,
// holding a retention Pin that tracks the follower's acknowledged position
// so checkpoint pruning never deletes a segment the stream still needs
// (the log keeps every record at or after the minimum pin across
// sessions). Every durable Node owns a Source, whatever its role — a
// follower's serves joins from its own log, which is what lets siblings
// re-point to it after a promotion.
type Source struct {
	log *wal.Log
	// heartbeat is how often an idle stream sends MsgReplHeartbeat;
	// followers size their read deadlines from it.
	heartbeat time.Duration
	// ackTimeout bounds the silence tolerated on the upstream ack channel
	// (10x heartbeat, at least 30s): a follower that stops acking is
	// disconnected so it cannot pin WAL retention forever.
	ackTimeout time.Duration
	// onFenced is invoked (outside the source mutex) when a join or an ack
	// reveals an epoch higher than this log's: the cluster moved on, and
	// the node owning this source must stop accepting writes.
	onFenced func(epoch uint64)
	logf     func(format string, args ...any)

	mu       sync.Mutex
	sessions map[*session]struct{}
	// ackCh is a broadcast channel for synchronous commit: closed and
	// replaced whenever any session's acked LSN advances, waking
	// WaitForAcks callers to re-count.
	ackCh chan struct{}
}

// session is the per-follower accounting visible in Stats.
type session struct {
	addr  string
	acked uint64 // last LSN the follower acknowledged
}

// newSource wraps an open WAL log for stream serving.
func newSource(log *wal.Log, heartbeat time.Duration, onFenced func(epoch uint64), logf func(format string, args ...any)) *Source {
	return &Source{
		log:        log,
		heartbeat:  heartbeat,
		ackTimeout: max(10*heartbeat, 30*time.Second),
		onFenced:   onFenced,
		logf:       logf,
		sessions:   make(map[*session]struct{}),
	}
}

func (s *Source) fence(epoch uint64) {
	s.logf("repl: observed epoch %d above local epoch %d; fencing", epoch, s.log.Epoch())
	s.onFenced(epoch)
}

// Stats reports the source's replication state: its durable LSN and epoch,
// the number of connected stream sessions, and the minimum acknowledged
// LSN across them (the current retention horizon).
func (s *Source) Stats() *wire.ReplStats {
	st := &wire.ReplStats{Role: "primary", LSN: s.log.NextLSN() - 1, Epoch: s.log.Epoch(), Durable: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Followers = len(s.sessions)
	first := true
	for sess := range s.sessions {
		if first || sess.acked < st.MinFollowerLSN {
			st.MinFollowerLSN = sess.acked
			first = false
		}
	}
	return st
}

// ackedCount reports how many connected followers have acknowledged lsn.
func (s *Source) ackedCount(lsn uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for sess := range s.sessions {
		if sess.acked >= lsn {
			n++
		}
	}
	return n
}

// ackWait returns a channel closed the next time any follower ack
// advances (or a session ends).
func (s *Source) ackWait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ackCh == nil {
		s.ackCh = make(chan struct{})
	}
	return s.ackCh
}

// ackBroadcast wakes WaitForAcks callers. Called whenever a session's
// acked LSN advances or the session set changes.
func (s *Source) ackBroadcast() {
	s.mu.Lock()
	if s.ackCh != nil {
		close(s.ackCh)
		s.ackCh = nil
	}
	s.mu.Unlock()
}

// WaitForAcks blocks until n connected followers have acknowledged lsn or
// the timeout elapses, reporting whether the quorum was met. Synchronous
// commit calls it after the local append: met=true means the record
// survives the loss of this node plus any n-1 of the acking followers.
func (s *Source) WaitForAcks(lsn uint64, n int, timeout time.Duration) bool {
	if n <= 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		if s.ackedCount(lsn) >= n {
			return true
		}
		ch := s.ackWait()
		// Re-check after arming the channel: an ack between the count and
		// ackWait would otherwise be missed.
		if s.ackedCount(lsn) >= n {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return s.ackedCount(lsn) >= n
		}
	}
}

// write sends one stream frame under the write deadline.
func (s *Source) write(nc net.Conn, typ byte, v any) error {
	if err := nc.SetWriteDeadline(time.Now().Add(sourceWriteTimeout)); err != nil {
		return err
	}
	return wire.WriteMessage(nc, typ, v, wire.ReplMaxFrame)
}

func (s *Source) writeError(nc net.Conn, code string, epoch uint64, format string, args ...any) error {
	return s.write(nc, wire.MsgError, &wire.ErrorResponse{Code: code, Epoch: epoch, Message: fmt.Sprintf(format, args...)})
}

// ServeConn runs one stream session on nc after a MsgReplJoin. The join
// carries the follower's applied LSN and the epoch of its local history;
// the pair decides the session's fate exactly:
//
//   - join epoch above ours: we are the stale party. Fence this node and
//     refuse with CodeFenced.
//   - join epoch below ours and the follower's history reaches into an
//     epoch it never saw (FromLSN >= that epoch's boundary): the histories
//     forked. Refuse with CodeDiverged; the follower resets and
//     rebootstraps.
//   - otherwise the follower's history is a prefix of ours: stream from
//     FromLSN+1 (bootstrapping from a checkpoint when that point is
//     pruned). Epoch records travel in-band and the follower adopts them.
//
// It returns when the connection fails or the follower goes silent past
// the ack timeout; the caller closes nc.
func (s *Source) ServeConn(nc net.Conn, join wire.ReplJoinRequest) error {
	from := join.FromLSN
	epoch := s.log.Epoch()
	if join.Epoch > epoch {
		s.fence(join.Epoch)
		_ = s.writeError(nc, wire.CodeFenced, join.Epoch,
			"this log is at epoch %d; follower's history is at epoch %d", epoch, join.Epoch)
		return fmt.Errorf("follower %s at epoch %d fences this log (epoch %d)", nc.RemoteAddr(), join.Epoch, epoch)
	}
	if join.Epoch < epoch {
		boundary, ok := s.log.BoundaryFor(join.Epoch)
		// The claimed history epoch must exist in our own table: a follower
		// at an epoch we never recorded wrote records under a promotion we
		// never saw (racing promoters), so nothing past an empty history is
		// a shared prefix. With the epoch present, the fork test is exact:
		// the follower diverged iff its history reaches the boundary where
		// a newer epoch rewrote those positions.
		if !s.log.HasEpoch(join.Epoch) || (ok && from >= boundary) || (!ok && from > 0) {
			_ = s.writeError(nc, wire.CodeDiverged, epoch,
				"follower history at epoch %d reaches lsn %d, past the epoch boundary %d; histories forked", join.Epoch, from, boundary)
			return fmt.Errorf("follower %s diverged: epoch %d history at lsn %d crosses boundary %d", nc.RemoteAddr(), join.Epoch, from, boundary)
		}
	}
	last := s.log.NextLSN() - 1
	if from > last {
		// The follower applied records this log never wrote. Streaming from
		// here could silently fork history, so refuse loudly; the follower
		// resets and rejoins from zero.
		_ = s.writeError(nc, wire.CodeDiverged, epoch,
			"follower at lsn %d is ahead of the log (last lsn %d)", from, last)
		return fmt.Errorf("follower %s at lsn %d ahead of log (last %d)", nc.RemoteAddr(), from, last)
	}

	next := from + 1
	// Pin before deciding how to start: from this point pruning cannot pass
	// us, so the bootstrap decision below cannot be invalidated by a
	// concurrent checkpoint.
	pin := s.log.NewPin(next)
	defer pin.Release()

	if next < s.log.OldestLSN() {
		parts, ckptLSN, ok, err := s.log.NewestCheckpointRaw()
		if err != nil || !ok {
			// Records before the oldest segment are gone and no checkpoint
			// covers them: nothing can rebuild this follower.
			_ = s.writeError(nc, wire.CodeInternal, 0, "resume lsn %d pruned and no checkpoint available", next)
			return fmt.Errorf("follower %s: resume lsn %d pruned, no checkpoint (err=%v)", nc.RemoteAddr(), next, err)
		}
		for _, part := range parts {
			if err := s.write(nc, wire.MsgReplSnapFrame, &wire.ReplSnapFrame{Kind: part.Kind, Payload: part.Payload}); err != nil {
				return fmt.Errorf("send snapshot: %w", err)
			}
		}
		next = ckptLSN + 1
		pin.Advance(next)
		s.logf("repl: %s bootstrapped from checkpoint lsn %d", nc.RemoteAddr(), ckptLSN)
	}

	sess := &session{addr: nc.RemoteAddr().String(), acked: next - 1}
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		// Wake sync-commit waiters so a lost follower is recounted now
		// rather than at their timeout.
		s.ackBroadcast()
	}()

	// The upstream direction runs in its own goroutine: acks advance the
	// retention pin; silence past the ack timeout or any read error ends the
	// session (the caller then closes nc, unblocking our writes).
	ackErr := make(chan error, 1)
	go s.readAcks(nc, sess, pin, ackErr)

	for {
		select {
		case err := <-ackErr:
			return err
		default:
		}
		recs, err := s.log.ReadRaw(next, sourceBatchBytes)
		if err != nil {
			// ErrCompacted cannot happen while our pin holds next; anything
			// here is a real log failure.
			_ = s.writeError(nc, wire.CodeInternal, 0, "log read failed: %v", err)
			return fmt.Errorf("read log at lsn %d: %w", next, err)
		}
		if len(recs) > 0 {
			epoch = s.log.Epoch()
			for _, r := range recs {
				msg := &wire.ReplRecord{LSN: r.LSN, Kind: r.Kind, Payload: r.Payload, Epoch: epoch}
				if err := s.write(nc, wire.MsgReplRecord, msg); err != nil {
					return fmt.Errorf("send record lsn %d: %w", r.LSN, err)
				}
			}
			next = recs[len(recs)-1].LSN + 1
			continue
		}
		// Caught up: park until the next append, but re-check first — a
		// record may have landed between ReadRaw and Appended.
		ch := s.log.Appended()
		if s.log.NextLSN() > next {
			continue
		}
		select {
		case <-ch:
		case <-time.After(s.heartbeat):
			if err := s.write(nc, wire.MsgReplHeartbeat, &wire.ReplHeartbeat{LSN: next - 1, Epoch: s.log.Epoch()}); err != nil {
				return fmt.Errorf("send heartbeat: %w", err)
			}
		case err := <-ackErr:
			return err
		}
	}
}

// readAcks consumes the follower's upstream frames, advancing its
// retention pin, lag accounting, and sync-commit counts. An ack carrying
// an epoch above the log's fences this node. It reports on ackErr exactly
// once.
func (s *Source) readAcks(nc net.Conn, sess *session, pin *wal.Pin, ackErr chan<- error) {
	for {
		if err := nc.SetReadDeadline(time.Now().Add(s.ackTimeout)); err != nil {
			ackErr <- err
			return
		}
		typ, payload, err := wire.ReadFrame(nc, wire.ReplMaxFrame)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("follower silent for %v (no acks): %w", s.ackTimeout, err)
			}
			ackErr <- err
			return
		}
		if typ != wire.MsgReplAck {
			ackErr <- fmt.Errorf("unexpected %s frame on ack channel", wire.TypeName(typ))
			return
		}
		var ack wire.ReplAck
		if err := wire.Unmarshal(payload, &ack); err != nil {
			ackErr <- err
			return
		}
		if ack.Epoch > s.log.Epoch() {
			s.fence(ack.Epoch)
			ackErr <- fmt.Errorf("follower ack at epoch %d fences this log (epoch %d)", ack.Epoch, s.log.Epoch())
			return
		}
		s.mu.Lock()
		advanced := ack.LSN > sess.acked
		if advanced {
			sess.acked = ack.LSN
		}
		s.mu.Unlock()
		if advanced {
			s.ackBroadcast()
		}
		pin.Advance(ack.LSN + 1)
	}
}
