package engine

import (
	"sopr/internal/rules"
	"sopr/internal/storage"
)

// snapState is one published point-in-time state of the whole engine: the
// storage snapshot plus everything else a lock-free reader may ask for —
// the rule set (an immutable value, shared as is), the last durable LSN,
// and the engine counters as of the publish. One atomic pointer holds all
// of it so Dump sees a single consistent cut: data, indexes, rules, and
// stats all from the same instant, never old tables with new rules.
type snapState struct {
	store *storage.Snapshot
	rules *rules.Set
	lsn   uint64 // last durable LSN at publish time (0 without a WAL)
	stats Stats  // engine + WAL counters at publish time
}

// publish captures the current committed state behind the engine's atomic
// snapshot pointer. It runs only on the exclusive write path — after a
// commit, rollback (for the counters), definition statement, checkpoint,
// or replayed batch — so it may freely read writer-private state: the plain
// engine counters and the WAL's mutex-guarded counters. Its cost does not
// depend on the number of rules. Readers then get all of it from one
// atomic load, with zero locking.
func (e *Engine) publish() {
	st := e.stats
	var lsn uint64
	if e.wal != nil {
		ws := e.wal.Stats()
		st.WALAppends, st.WALBytes = ws.Appends, ws.Bytes
		st.GroupCommits, st.GroupedTxns = ws.GroupCommits, ws.GroupedTxns
		lsn = e.wal.NextLSN() - 1
	}
	e.snap.Store(&snapState{
		store: e.store.Snapshot(),
		rules: e.rules,
		lsn:   lsn,
		stats: st,
	})
}

// PublishSnapshot republishes the engine's read snapshot from the current
// storage state. The normal write paths publish implicitly; this explicit
// form exists for the replay paths: crash recovery publishes once after
// the whole log tail (per-record publishes would re-trigger the
// copy-on-write of each written chunk per record), while a replication
// follower calls it after every applied record so snapshot readers see
// replicated state as it arrives.
func (e *Engine) PublishSnapshot() {
	e.store.PublishSnapshot()
	e.publish()
}

// SnapshotLSN reports the last durable log sequence number captured with
// the current read snapshot (0 on an in-memory engine). Lock-free.
func (e *Engine) SnapshotLSN() uint64 {
	return e.snap.Load().lsn
}

// Snapshot returns the engine's current committed storage snapshot — the
// state lock-free readers query. Exposed for tests and tools that want to
// read a consistent cut while the writer runs.
func (e *Engine) Snapshot() *storage.Snapshot {
	return e.snap.Load().store
}
