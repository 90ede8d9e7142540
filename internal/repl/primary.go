package repl

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sopr"
	"sopr/internal/wal"
	"sopr/internal/wire"
)

// PrimaryConfig tunes the leader-side server backend.
type PrimaryConfig struct {
	// SyncFollowers is the number of follower acks each commit waits for
	// before the client is acknowledged (0 = asynchronous replication).
	SyncFollowers int
	// SyncTimeout bounds the synchronous-commit wait (default 2s); on
	// timeout the commit degrades to an async ack: the write is durable
	// locally and the response carries Synced=false.
	SyncTimeout time.Duration
	// Source tunes the WAL stream source (heartbeat cadence, ack timeout).
	Source SourceConfig
	// Follower tunes the follower this node becomes if it is demoted
	// (reconnect backoff, stream timeouts); its Primary, DataDir and FS
	// fields are ignored — the demoted follower keeps this node's database.
	Follower FollowerConfig
	// Logf receives primary log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Primary wraps a durable sopr.DB as the leader-side server backend. On
// top of the plain synchronized database it adds the failover machinery:
//
//   - fencing: when any channel (an exec request, a stream join, a
//     follower ack) reveals a promotion epoch above this log's, the node
//     stops accepting writes — Exec returns the typed FencedError — so a
//     zombie primary on the losing side of a partition cannot extend a
//     history the cluster has moved past.
//   - synchronous commit: with SyncFollowers > 0, Exec holds the client's
//     ack until that many followers have acknowledged the commit's LSN.
//   - demotion: Follow turns the node into a follower of the new leader
//     over the same SynchronizedDB and log. The rejoin truncates (by reset
//     and re-bootstrap) any suffix the new leader's history does not share.
type Primary struct {
	cfg    PrimaryConfig
	sdb    *sopr.SynchronizedDB
	log    *wal.Log
	src    *Source
	commit *commitSync

	mu       sync.Mutex
	fencedAt uint64    // epoch that fenced this node; 0 while leading
	demoted  *Follower // non-nil after Follow: writes and LSN waits route here

	// execWG counts in-flight writes; demotion waits on it so the
	// follower never races a still-running Exec.
	execWG sync.WaitGroup
}

// NewPrimary wraps an open durable database for serving. The database
// must have a write-ahead log (OpenDurable); the wrapped DB must not be
// used directly afterwards.
func NewPrimary(db *sopr.DB, cfg PrimaryConfig) (*Primary, error) {
	l := db.WALLog()
	if l == nil {
		return nil, errors.New("repl: primary requires a durable database (no WAL attached)")
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 2 * time.Second
	}
	p := &Primary{cfg: cfg, sdb: sopr.Synchronized(db), log: l}
	scfg := cfg.Source
	scfg.OnFenced = p.ObserveEpoch
	if scfg.Logf == nil {
		scfg.Logf = cfg.Logf
	}
	p.src = NewSource(l, scfg)
	p.commit = &commitSync{log: l, src: p.src, n: cfg.SyncFollowers, timeout: cfg.SyncTimeout, logf: p.logf}
	return p, nil
}

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// DB exposes the synchronized database for leader-local plumbing (init
// scripts, tracing). Routing Exec through it bypasses fencing and
// sync-commit; servers must use the Primary itself as the backend.
func (p *Primary) DB() *sopr.SynchronizedDB { return p.sdb }

// ReplSource exposes the WAL stream source for MsgReplJoin sessions.
func (p *Primary) ReplSource() *Source { return p.src }

// backend returns the demoted follower, or nil while this node leads.
func (p *Primary) backend() *Follower {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.demoted
}

// Epoch reports the highest promotion epoch this node has observed — its
// own log's, or the fencing epoch once one has been seen.
func (p *Primary) Epoch() uint64 {
	if f := p.backend(); f != nil {
		return f.KnownEpoch()
	}
	p.mu.Lock()
	fenced := p.fencedAt
	p.mu.Unlock()
	if e := p.log.Epoch(); e > fenced {
		return e
	}
	return fenced
}

// ObserveEpoch records that epoch e exists in the cluster. Seeing one
// above this log's fences the node: writes refuse with FencedError until
// Follow demotes it under the new leader.
func (p *Primary) ObserveEpoch(e uint64) {
	p.mu.Lock()
	if f := p.demoted; f != nil {
		p.mu.Unlock()
		f.ObserveEpoch(e)
		return
	}
	if e <= p.log.Epoch() || e <= p.fencedAt {
		p.mu.Unlock()
		return
	}
	p.fencedAt = e
	p.mu.Unlock()
	p.logf("repl: FENCED by epoch %d (local epoch %d); refusing writes until demoted under the new leader", e, p.log.Epoch())
}

// Promote on a leading node is mostly a no-op (it is already primary);
// with an explicit target epoch above the log's it opens that epoch,
// un-fencing the node — the cluster-client path for re-electing a healed
// ex-primary. On a demoted node it delegates to the inner follower.
func (p *Primary) Promote(epoch uint64) (uint64, error) {
	p.mu.Lock()
	if f := p.demoted; f != nil {
		p.mu.Unlock()
		return f.Promote(epoch)
	}
	cur := p.log.Epoch()
	if p.fencedAt == 0 && epoch <= cur {
		p.mu.Unlock()
		return cur, nil
	}
	newEpoch := cur + 1
	if p.fencedAt >= newEpoch {
		newEpoch = p.fencedAt + 1
	}
	if epoch > newEpoch {
		newEpoch = epoch
	}
	if _, err := p.log.AppendEpoch(newEpoch); err != nil {
		p.mu.Unlock()
		return 0, fmt.Errorf("repl: promote: %w", err)
	}
	p.fencedAt = 0
	p.mu.Unlock()
	p.logf("repl: PROMOTED (re-opened leadership) at epoch %d", newEpoch)
	return newEpoch, nil
}

// Follow demotes this node into a follower of leader at the given epoch,
// which must be strictly newer than anything in the local history. All
// in-flight writes drain first; from then on every request routes through
// the demoted follower, which rejoins the new leader from its applied LSN
// — discarding, loudly, any suffix the new leader does not share.
func (p *Primary) Follow(leader string, epoch uint64) error {
	p.mu.Lock()
	if f := p.demoted; f != nil {
		p.mu.Unlock()
		return f.Follow(leader, epoch)
	}
	cur := p.log.Epoch()
	if epoch <= cur || epoch < p.fencedAt {
		have := cur
		if p.fencedAt > have {
			have = p.fencedAt
		}
		p.mu.Unlock()
		return &StaleEpochError{Epoch: have}
	}
	// Fence before draining: no new Exec can start, and none can be
	// running once execWG settles — the follower takes the database cold.
	p.fencedAt = epoch
	p.mu.Unlock()
	p.execWG.Wait()

	fcfg := p.cfg.Follower
	fcfg.Primary = leader
	fcfg.DataDir, fcfg.FS = "", nil
	fcfg.SyncFollowers = p.cfg.SyncFollowers
	fcfg.SyncTimeout = p.cfg.SyncTimeout
	if fcfg.Logf == nil {
		fcfg.Logf = p.cfg.Logf
	}
	f := newFollower(fcfg, p.sdb, p.log, p.src, epoch)
	p.mu.Lock()
	p.demoted = f
	p.mu.Unlock()
	go f.Run()
	p.logf("repl: DEMOTED into follower of %s at epoch %d; any unshipped suffix will be truncated on rejoin", leader, epoch)
	return nil
}

// Exec runs a write through the engine, then (with SyncFollowers set)
// holds the ack until enough followers confirm the commit's LSN. A fenced
// node refuses with FencedError; a demoted one routes to its follower.
func (p *Primary) Exec(src string) (*sopr.Result, error) {
	return p.execSync(
		func(f *Follower) (*sopr.Result, error) { return f.Exec(src) },
		func() (*sopr.Result, error) { return p.sdb.Exec(src) },
	)
}

// ExecBatch runs a batch of statements as one operation block (see
// sopr.DB.ExecBatch) behind the same fencing gate and synchronous-commit
// ack hold as Exec: the whole block is one commit record, so a sync-commit
// cluster pays one follower-ack wait per batch instead of per statement.
func (p *Primary) ExecBatch(stmts []string) (*sopr.Result, error) {
	return p.execSync(
		func(f *Follower) (*sopr.Result, error) { return f.ExecBatch(stmts) },
		func() (*sopr.Result, error) { return p.sdb.ExecBatch(stmts) },
	)
}

// execSync is the shared write wrapper: the fencing gate, in-flight write
// accounting (demotion drains it), and the synchronous-commit ack hold.
func (p *Primary) execSync(onFollower func(*Follower) (*sopr.Result, error), run func() (*sopr.Result, error)) (*sopr.Result, error) {
	p.mu.Lock()
	if f := p.demoted; f != nil {
		p.mu.Unlock()
		return onFollower(f)
	}
	if p.fencedAt > 0 {
		e := p.fencedAt
		p.mu.Unlock()
		return nil, &FencedError{Epoch: e}
	}
	p.execWG.Add(1)
	p.mu.Unlock()
	defer p.execWG.Done()
	return p.commit.exec(run)
}

// Query serves reads from the committed snapshot — replayed state once
// demoted, since the follower applies through the same handle.
func (p *Primary) Query(src string) (*sopr.Rows, error) { return p.sdb.Query(src) }

// Dump writes the committed state as an executable script.
func (p *Primary) Dump(w io.Writer) error { return p.sdb.Dump(w) }

// Stats reports engine counters.
func (p *Primary) Stats() sopr.Stats { return p.sdb.Stats() }

// CurrentLSN reports the last durable LSN (the read-your-writes token).
func (p *Primary) CurrentLSN() uint64 {
	if f := p.backend(); f != nil {
		return f.CurrentLSN()
	}
	return p.sdb.CurrentLSN()
}

// WaitForLSN implements read-your-writes waits; a leading primary is
// always current, a demoted node waits on its follower's applied LSN.
func (p *Primary) WaitForLSN(lsn uint64, timeout time.Duration) error {
	if f := p.backend(); f != nil {
		return f.WaitForLSN(lsn, timeout)
	}
	return nil
}

// Checkpoint writes a checkpoint image and prunes shipped segments.
func (p *Primary) Checkpoint() error { return p.sdb.Checkpoint() }

// Recovered reports whether the wrapped database recovered prior state.
func (p *Primary) Recovered() bool { return p.sdb.Recovered() }

// Close shuts the node down: a demoted node stops its follower loop (which
// closes the shared log); a leading one closes the database.
func (p *Primary) Close() error {
	if f := p.backend(); f != nil {
		f.Close()
		return nil
	}
	return p.sdb.Close()
}

// ReplStats reports the node's replication state.
func (p *Primary) ReplStats() *wire.ReplStats {
	if f := p.backend(); f != nil {
		return f.ReplStats()
	}
	st := p.src.Stats()
	p.mu.Lock()
	st.Fenced = p.fencedAt > 0
	if p.fencedAt > st.Epoch {
		st.Epoch = p.fencedAt
	}
	p.mu.Unlock()
	st.SyncFollowers = p.cfg.SyncFollowers
	st.SyncTimeouts = p.commit.timeouts.Load()
	return st
}
