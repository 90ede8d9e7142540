package sopr

import (
	"fmt"
	"io"
	"sync"

	"sopr/internal/wal"
)

// The paper's model of system execution is a single stream of operation
// blocks — "multiple users, concurrent processing, and failures are all
// transparent" (Section 2.1) — so DB itself is not safe for concurrent
// mutation. SynchronizedDB shares one DB between goroutines: writes are
// serialized by a mutex, reads take no lock at all.
//
// The single-stream constraint binds *writes* only: an operation block
// produces a transition, triggers rules, and must therefore occupy the
// stream alone, so Exec (and the other mutating entry points) take the
// mutex — concurrent Execs are simply interleaved as a stream of
// transactions, and rule semantics are unchanged. Queries perform no
// transition and trigger no rules (Section 2.1 places them outside the
// operation-block stream unless the Section 5.1 select-trigger extension
// routes them through Exec), so Query, Stats, Dump, CurrentLSN and
// Recovered acquire nothing: every commit publishes an immutable snapshot
// of the whole committed state behind an atomic pointer (see
// internal/storage's copy-on-write tables), and each read loads that
// pointer once and traverses frozen structures. Readers never wait behind
// a writer, never contend with each other, and always observe some
// committed point-in-time state — read throughput scales with cores (the
// S3 experiment in EXPERIMENTS.md measures it against the previous
// shared-lock design). The only words readers share with anyone are the
// storage layer's atomic access-path counters.
type SynchronizedDB struct {
	mu sync.Mutex
	db *DB
}

// Synchronized wraps a DB for concurrent use. The wrapped DB must not be
// used directly afterwards.
func Synchronized(db *DB) *SynchronizedDB {
	return &SynchronizedDB{db: db}
}

// Exec runs a script as one serialized operation block, under the write
// mutex: writes preserve the paper's single-stream semantics. The
// durability wait happens *after* the mutex is released: the engine pass
// (parse, rules, append to the log, in-memory commit) is serialized, but
// the commit-record fsync is not — overlapping committers park on the
// write-ahead log's commit queue and one leader fsync acknowledges all of
// them (group commit). A transaction is still only acknowledged once its
// record is durable; what changed is how many acknowledgements one fsync
// covers.
func (s *SynchronizedDB) Exec(src string) (*Result, error) {
	s.mu.Lock()
	res, lsn, err := s.db.execNoWait(src)
	s.mu.Unlock()
	return s.db.finish(res, lsn, err)
}

// ExecBatch runs a batch of data-manipulation statements as one operation
// block (see DB.ExecBatch), serialized under the write mutex with the
// durability wait outside it — the batch pays one engine pass, one commit
// record, and one (shared) fsync no matter how many statements it holds.
func (s *SynchronizedDB) ExecBatch(stmts []string) (*Result, error) {
	s.mu.Lock()
	res, lsn, err := s.db.execBatchNoWait(stmts)
	s.mu.Unlock()
	return s.db.finish(res, lsn, err)
}

// MustExec is Exec that panics on error — for examples and tests.
func (s *SynchronizedDB) MustExec(src string) *Result {
	res, err := s.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("sopr: %v", err))
	}
	return res
}

// Query evaluates a SELECT with zero locking: it runs against the
// currently published committed snapshot (one atomic pointer load),
// concurrent with other readers and with the write path, and always sees
// a consistent committed state.
func (s *SynchronizedDB) Query(src string) (*Rows, error) {
	return s.db.Query(src)
}

// MustQuery is Query that panics on error.
func (s *SynchronizedDB) MustQuery(src string) *Rows {
	r, err := s.Query(src)
	if err != nil {
		panic(fmt.Sprintf("sopr: %v", err))
	}
	return r
}

// TraceTo installs (or, with nil, removes) a line-per-event trace writer on
// the wrapped DB, under the write mutex. Trace events are emitted only
// while some goroutine holds the mutex in Exec, so writes to w are
// serialized and no lock-free reader ever runs the handler.
func (s *SynchronizedDB) TraceTo(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.TraceTo(w)
}

// Stats returns counters with zero locking: the engine and WAL counters
// were captured into the published snapshot by the write path, and the
// access-path counters are atomic (concurrent readers advance them), so
// each counter is a value that was current at some instant during the
// call.
func (s *SynchronizedDB) Stats() Stats {
	return s.db.Stats()
}

// Dump serializes the published committed snapshot with zero locking. The
// image is a consistent point-in-time state — schema, data, indexes and
// rules from the same instant — even while a writer runs; an in-flight
// transaction is simply not visible.
func (s *SynchronizedDB) Dump(w io.Writer) error {
	return s.db.Dump(w)
}

// Checkpoint writes a checkpoint image under the write mutex (no
// transaction can be in flight while it runs, so the image is a consistent
// snapshot). It takes the mutex because it also prunes log segments — a
// durable-state mutation.
func (s *SynchronizedDB) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Checkpoint()
}

// ApplyRecord replays one replicated log record under the write mutex
// (see engine.ReplayRecord): it appends the record to the attached log if
// there is one — log before apply, so a crash between the two replays it
// at restart — applies it with rule processing disabled, and publishes the
// result for lock-free readers. It returns the decoded record. Like
// DB.WALLog it takes an internal type: it exists for the replication
// package, whose followers keep one handle for their whole life.
func (s *SynchronizedDB) ApplyRecord(raw wal.RawRecord) (wal.Record, error) {
	rec, err := raw.Decode()
	if err != nil {
		return rec, fmt.Errorf("sopr: decode record lsn %d: %w", raw.LSN, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.db.walLog; l != nil {
		if err := l.AppendRaw(raw); err != nil {
			return rec, fmt.Errorf("sopr: append record lsn %d: %w", raw.LSN, err)
		}
	}
	if err := s.db.eng.ReplayRecord(rec); err != nil {
		return rec, err
	}
	s.db.eng.PublishSnapshot()
	return rec, nil
}

// Restore replaces the database with a checkpoint image (nil empties it)
// under the write mutex, logging nothing (see engine.Restore). A follower
// re-bootstrapping from its leader installs the image here.
func (s *SynchronizedDB) Restore(ck *wal.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.eng.Restore(ck)
}

// Close closes the wrapped database's write-ahead log under the write
// mutex.
func (s *SynchronizedDB) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Close()
}

// CurrentLSN reports the last durable log sequence number captured with
// the published snapshot — the read-your-writes token the server attaches
// to exec responses. Lock-free: one atomic pointer load.
func (s *SynchronizedDB) CurrentLSN() uint64 {
	return s.db.CurrentLSN()
}

// Recovered reports whether the wrapped database recovered prior state
// (the flag is set once at open and never mutated, so no synchronization
// is needed).
func (s *SynchronizedDB) Recovered() bool {
	return s.db.Recovered()
}

// TraceTo writes a human-readable line per rule-processing event to w
// (the same format the soprsh `.trace on` command uses). Pass nil to stop
// tracing. It is a convenience over OnTrace.
func (db *DB) TraceTo(w io.Writer) {
	if w == nil {
		db.OnTrace(nil)
		return
	}
	db.OnTrace(func(ev TraceEvent) {
		switch ev.Kind {
		case TraceExternalTransition:
			fmt.Fprintf(w, "-- external transition %s\n", ev.Effect)
		case TraceRuleConsidered:
			fmt.Fprintf(w, "-- consider %s (condition=%v) %s\n", ev.Rule, ev.CondHeld, ev.Effect)
		case TraceRuleFired:
			fmt.Fprintf(w, "-- fire %s %s\n", ev.Rule, ev.Effect)
		case TraceRollback:
			fmt.Fprintf(w, "-- rollback by %s\n", ev.Rule)
		case TraceCommit:
			fmt.Fprintf(w, "-- commit\n")
		}
	})
}
