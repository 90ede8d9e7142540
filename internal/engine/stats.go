package engine

// Stats are cumulative counters over the engine's lifetime, exposed for
// observability and for the benchmark harness.
type Stats struct {
	// Transactions committed and rolled back (rule rollbacks, errors and
	// the runaway guard all count as rollbacks).
	Committed  int64
	RolledBack int64
	// ExternalTransitions counts externally-generated transitions
	// (PROCESS RULES triggering points split one transaction into several).
	ExternalTransitions int64
	// RuleConsiderations counts condition evaluations; RuleFirings counts
	// action executions (rule-generated transitions). RuleVisits counts
	// rule trans-info initializations, compositions and triggering tests.
	RuleConsiderations int64
	RuleFirings        int64
	RuleVisits         int64
	// Access-path counters from the storage layer: selections served from
	// a secondary hash index (CREATE INDEX) vs. full heap table scans.
	IndexLookups int64
	HeapScans    int64
	// Durability counters: write-ahead-log appends and bytes (zero when no
	// log is attached), records replayed during crash recovery, and
	// checkpoints written.
	WALAppends       int64
	WALBytes         int64
	RecoveredRecords int64
	Checkpoints      int64
	// Group-commit counters (SyncAlways durable path): leader fsyncs
	// issued from the commit queue and the committers they acknowledged.
	// GroupedTxns/GroupCommits is the fsync amortization factor.
	GroupCommits int64
	GroupedTxns  int64
	// Planner counters: query blocks executed through the cost-based join
	// planner, and index probes that fell back to a heap scan at lookup
	// time (the 2^53 integer-keyspace fallback).
	PlannedQueries     int64
	PlanProbeFallbacks int64
}

// Stats returns a snapshot of the engine's counters, lock-free: the
// engine-level and WAL counters were captured into the published snapshot
// state by the write path (see snapshot.go), so this reads them with one
// atomic pointer load — no engine field, no WAL mutex. The access-path
// counters are overlaid live from the storage layer's atomic pair, since
// concurrent readers (not just the writer) advance them.
func (e *Engine) Stats() Stats {
	sn := e.snap.Load()
	s := sn.stats
	s.HeapScans, s.IndexLookups = sn.store.AccessStats()
	s.PlannedQueries = e.planCounters.Planned.Load()
	s.PlanProbeFallbacks = e.planCounters.ProbeFallbacks.Load()
	return s
}
