package engine

// Stats are cumulative counters over the engine's lifetime, exposed for
// observability and for the benchmark harness. This is the one declaration
// of the counter list: sopr.Stats and the wire protocol's EngineStats are
// aliases of it, and the JSON tags are the stats response's wire format.
type Stats struct {
	// Transactions committed and rolled back (rule rollbacks, errors and
	// the runaway guard all count as rollbacks).
	Committed  int64 `json:"committed"`
	RolledBack int64 `json:"rolled_back"`
	// ExternalTransitions counts externally-generated transitions
	// (PROCESS RULES triggering points split one transaction into several).
	ExternalTransitions int64 `json:"external_transitions"`
	// RuleConsiderations counts condition evaluations; RuleFirings counts
	// action executions (rule-generated transitions). RuleVisits counts
	// rule trans-info initializations, compositions and triggering tests.
	RuleConsiderations int64 `json:"rule_considerations"`
	RuleFirings        int64 `json:"rule_firings"`
	RuleVisits         int64 `json:"rule_visits"`
	// Access-path counters from the storage layer: selections served from
	// a secondary hash index (CREATE INDEX) vs. full heap table scans.
	IndexLookups int64 `json:"index_lookups"`
	HeapScans    int64 `json:"heap_scans"`
	// Durability counters: write-ahead-log appends and bytes (zero when no
	// log is attached), records replayed during crash recovery, and
	// checkpoints written.
	WALAppends       int64 `json:"wal_appends"`
	WALBytes         int64 `json:"wal_bytes"`
	RecoveredRecords int64 `json:"recovered_records"`
	Checkpoints      int64 `json:"checkpoints"`
	// Group-commit counters (SyncAlways durable path): leader fsyncs
	// issued from the commit queue and the committers they acknowledged
	// (see TxnsPerSync).
	GroupCommits int64 `json:"group_commits,omitempty"`
	GroupedTxns  int64 `json:"grouped_txns,omitempty"`
	// Planner counters: query blocks executed through the cost-based join
	// planner, and index probes that fell back to a heap scan at lookup
	// time (the 2^53 integer-keyspace fallback).
	PlannedQueries     int64 `json:"planned_queries,omitempty"`
	PlanProbeFallbacks int64 `json:"plan_probe_fallbacks,omitempty"`
}

// TxnsPerSync is GroupedTxns/GroupCommits, the fsync amortization factor
// (1.0 means every committer synced alone; >1 means fsyncs were shared; 0
// before any group commit).
func (s Stats) TxnsPerSync() float64 {
	if s.GroupCommits == 0 {
		return 0
	}
	return float64(s.GroupedTxns) / float64(s.GroupCommits)
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
