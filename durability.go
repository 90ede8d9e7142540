package sopr

import (
	"fmt"
	"time"

	"sopr/internal/engine"
	"sopr/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs appended records.
type SyncPolicy int

// Fsync policies for OpenDurable.
const (
	// FsyncAlways fsyncs after every commit record: an acknowledged
	// transaction is durable. The default.
	FsyncAlways SyncPolicy = SyncPolicy(wal.SyncAlways)
	// FsyncInterval fsyncs on a background timer: a crash loses at most the
	// last interval's acknowledged transactions, never corrupts the log.
	FsyncInterval SyncPolicy = SyncPolicy(wal.SyncInterval)
	// FsyncNever leaves persistence timing to the operating system.
	FsyncNever SyncPolicy = SyncPolicy(wal.SyncNever)
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// ParseSyncPolicy converts "always", "interval" or "never" (a -fsync flag
// value) to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	p, err := wal.ParseSyncPolicy(s)
	return SyncPolicy(p), err
}

// durConfig is the durability half of config (see sopr.go).
type durConfig struct {
	fs          wal.FS
	policy      wal.SyncPolicy
	interval    time.Duration
	segmentSize int64
}

// WithFsync sets the log's fsync policy (default FsyncAlways). Ignored by
// the plain in-memory Open.
func WithFsync(p SyncPolicy) Option {
	return func(c *config) { c.dur.policy = wal.SyncPolicy(p) }
}

// WithFsyncInterval sets the background sync period used by FsyncInterval
// (default 100ms).
func WithFsyncInterval(d time.Duration) Option {
	return func(c *config) { c.dur.interval = d }
}

// WithFS routes the log through an alternate filesystem — the fault
// injection hook of the crash-recovery tests, which a durable replication
// follower passes on. It takes an internal type, so only this module can
// use it.
func WithFS(fs wal.FS) Option {
	return func(c *config) { c.dur.fs = fs }
}

// withSegmentSize overrides the log rotation threshold (tests).
func withSegmentSize(n int64) Option {
	return func(c *config) { c.dur.segmentSize = n }
}

// RecoveryInfo summarizes what OpenDurable found in the data directory.
type RecoveryInfo struct {
	// CheckpointLoaded reports whether a checkpoint image was installed.
	CheckpointLoaded bool
	// RecordsReplayed is the number of log records replayed after the
	// checkpoint (or from the beginning, with no checkpoint).
	RecordsReplayed int
	// TruncatedBytes counts torn-tail bytes discarded from the final log
	// segment — the residue of a crash mid-append.
	TruncatedBytes int64
	// SkippedCheckpoints lists checkpoint files that failed to load; an
	// older checkpoint (or the full log) was used instead.
	SkippedCheckpoints []string
}

// OpenDurable opens (creating if necessary) a database whose committed
// state lives in dir: a write-ahead log of net transition effects
// (Definition 2.1 of the paper) plus periodic checkpoint images. Recovery
// loads the newest readable checkpoint, replays the log tail with rule
// processing disabled — net effects already include every rule-generated
// transition, so replay cannot diverge no matter how rule selection would
// have gone (Section 4) — and lands on exactly the pre-crash committed
// state. A recovery error leaves nothing half-installed: the returned DB
// is nil and the directory is untouched.
func OpenDurable(dir string, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return openDurable(dir, cfg)
}

func openDurable(dir string, cfg config) (*DB, error) {
	l, rec, err := wal.Open(dir, wal.Options{
		FS:          cfg.dur.fs,
		Policy:      cfg.dur.policy,
		Interval:    cfg.dur.interval,
		SegmentSize: cfg.dur.segmentSize,
	})
	if err != nil {
		return nil, fmt.Errorf("sopr: open %s: %w", dir, err)
	}
	eng := engine.New(cfg.eng)
	if err := eng.Restore(rec.Checkpoint); err != nil {
		_ = l.Close() // recovery already failed
		return nil, fmt.Errorf("sopr: recover %s: %w", dir, err)
	}
	for _, r := range rec.Records {
		if err := eng.ReplayRecord(r); err != nil {
			_ = l.Close() // recovery already failed
			return nil, fmt.Errorf("sopr: recover %s: %w", dir, err)
		}
	}
	eng.AttachWAL(l)
	db := &DB{
		eng:    eng,
		walLog: l,
		recovery: RecoveryInfo{
			CheckpointLoaded:   rec.Checkpoint != nil,
			RecordsReplayed:    len(rec.Records),
			TruncatedBytes:     rec.TruncatedBytes,
			SkippedCheckpoints: rec.SkippedCheckpoints,
		},
	}
	db.recovered = db.recovery.CheckpointLoaded || db.recovery.RecordsReplayed > 0
	return db, nil
}

// Recovered reports whether OpenDurable found prior state in the data
// directory (as opposed to initializing a fresh database). Servers use it
// to decide whether to run an init script.
func (db *DB) Recovered() bool { return db.recovered }

// Recovery returns what OpenDurable found in the data directory.
func (db *DB) Recovery() RecoveryInfo { return db.recovery }

// Checkpoint writes a full database image to the data directory and prunes
// the log segments it covers. Recovery after a checkpoint replays only the
// records appended since. It is an error on a database without a log.
func (db *DB) Checkpoint() error {
	return db.eng.Checkpoint()
}

// CurrentLSN reports the last durable log sequence number (0 on an
// in-memory database, or before the first commit). It is the
// read-your-writes token replication clients carry from a write on the
// primary to reads on replicas. The value is captured with the published
// engine snapshot at every commit/DDL/checkpoint, so reading it is one
// atomic pointer load — no WAL mutex on the read path.
func (db *DB) CurrentLSN() uint64 {
	return db.eng.SnapshotLSN()
}

// WALLog exposes the attached write-ahead log (nil on an in-memory
// database). The soprd daemon hands it to the replication source so
// stream sessions can tail and pin it.
func (db *DB) WALLog() *wal.Log { return db.walLog }

// Engine exposes the underlying engine to this module's tools (the
// benchmark harness traces it); it is not part of the stable public
// surface. Replication goes through SynchronizedDB instead.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Close flushes and closes the write-ahead log. Executing against a closed
// durable database fails. Close on an in-memory database is a no-op.
func (db *DB) Close() error {
	if db.walLog == nil {
		return nil
	}
	return db.walLog.Close()
}
