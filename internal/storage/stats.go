// Per-column statistics for the cost-based planner.
//
// Every table maintains, for each column, the exact number of NULLs and an
// exact distinct-value histogram: a count per value.KeyExact key, held in a
// persistent hash trie (trie.go), so the first change to a column's counts
// after a publish copies one root-to-leaf path of the trie, not the whole
// histogram. The statistics are updated incrementally by the same three
// tuple-mutation primitives that maintain secondary indexes and the handle
// directory (applyInsert, applyRemove, applySet), which the WAL replay
// primitives also go through, and rollback reinstates them with the rest
// of each table version — so stats stay exact under rollback and crash
// recovery with no extra machinery, and CheckStats can verify them against
// a from-scratch rebuild after any operation history.
//
// The planner consumes them through ColumnStats (cardinality and distinct
// counts drive join ordering and selectivity estimates) and ClassifyProbe
// (whether an equality probe can be served by an index, including the
// 2^53 integer-keyspace fallback that must be costed as a scan).
package storage

import (
	"fmt"

	"sopr/internal/value"
)

// colStats is the exact per-column statistic: a count per distinct non-NULL
// value key, in a trie (trie.go), plus the NULL count. The trie counts its
// keys, so the distinct cardinality is O(1).
type colStats struct {
	distinct trie[value.Key, int]
	nulls    int
}

func (cs *colStats) add(w *cowState, v value.Value) {
	k, ok := value.KeyExact(v)
	if !ok {
		cs.nulls++
		return
	}
	*cs.distinct.ref(w, k)++
}

func (cs *colStats) remove(w *cowState, v value.Value) {
	k, ok := value.KeyExact(v)
	if !ok {
		cs.nulls--
		return
	}
	if n := cs.distinct.ref(w, k); *n > 1 {
		*n--
	} else {
		cs.distinct.del(w, k)
	}
}

// ColStats is the planner-facing view of one column's statistics.
type ColStats struct {
	Rows     int // table cardinality
	Distinct int // distinct non-NULL values
	Nulls    int // NULL count
}

// columnStats is the shared body of Store.ColumnStats and
// Snapshot.ColumnStats.
func columnStats(td *tableData, col int) (ColStats, error) {
	if col < 0 || col >= len(td.stats) {
		return ColStats{}, fmt.Errorf("storage: column index %d out of range for table %q", col, td.schema.Name)
	}
	cs := &td.stats[col]
	return ColStats{Rows: td.heap.n, Distinct: cs.distinct.len(), Nulls: cs.nulls}, nil
}

// ColumnStats returns exact cardinality/distinct/null statistics for one
// column of the named table.
func (s *Store) ColumnStats(table string, col int) (ColStats, error) {
	td, err := s.table(table)
	if err != nil {
		return ColStats{}, err
	}
	return columnStats(td, col)
}

// ColumnStats returns exact cardinality/distinct/null statistics for one
// column of the named table, as of the snapshot.
func (sn *Snapshot) ColumnStats(table string, col int) (ColStats, error) {
	td, err := sn.table(table)
	if err != nil {
		return ColStats{}, err
	}
	return columnStats(td, col)
}

// ProbeClass classifies, at plan time, how an index equality probe on a
// column would be served.
type ProbeClass int

const (
	// ProbeNoIndex: no secondary index covers the column; only a scan can
	// serve the selection.
	ProbeNoIndex ProbeClass = iota
	// ProbeIndexed: the index answers the probe exactly (including the
	// provably-empty case).
	ProbeIndexed
	// ProbeFallback: an index exists but cannot answer this probe exactly
	// (an integral float at or beyond 2^53 probing an INTEGER column has
	// several int64 preimages); execution falls back to a heap scan, and
	// the planner must cost it as one.
	ProbeFallback
)

func (p ProbeClass) String() string {
	switch p {
	case ProbeNoIndex:
		return "no-index"
	case ProbeIndexed:
		return "indexed"
	case ProbeFallback:
		return "index-fallback-scan"
	default:
		return fmt.Sprintf("ProbeClass(%d)", int(p))
	}
}

// classifyProbe is the shared body of Store.ClassifyProbe and
// Snapshot.ClassifyProbe.
func classifyProbe(td *tableData, col int, vals []value.Value) ProbeClass {
	ix := indexOn(td, col)
	if ix == nil {
		return ProbeNoIndex
	}
	for _, v := range vals {
		if _, outcome := probeKey(v, ix.kind); outcome == probeScan {
			return ProbeFallback
		}
	}
	return ProbeIndexed
}

// ClassifyProbe reports how an equality/IN probe with the given values
// against table.column would be served, without executing it. The planner
// uses this to cost the 2^53 integer-keyspace fallback explicitly instead
// of discovering it at execution time.
func (s *Store) ClassifyProbe(table string, col int, vals ...value.Value) ProbeClass {
	td, err := s.table(table)
	if err != nil {
		return ProbeNoIndex
	}
	return classifyProbe(td, col, vals)
}

// ClassifyProbe is the snapshot-side ClassifyProbe (see Store.ClassifyProbe).
func (sn *Snapshot) ClassifyProbe(table string, col int, vals ...value.Value) ProbeClass {
	td, err := sn.table(table)
	if err != nil {
		return ProbeNoIndex
	}
	return classifyProbe(td, col, vals)
}

// CheckStats verifies every table's incremental column statistics against a
// from-scratch recount of the heap into plain maps, returning the first
// discrepancy, and checks the shape of every statistics trie. Like
// CheckIndexes, tests run it after randomized operation histories
// (rollbacks, replays, clones) to prove incremental maintenance exact.
func (s *Store) CheckStats() error {
	for name, td := range s.tables {
		if len(td.stats) != len(td.schema.Columns) {
			return fmt.Errorf("storage: stats for %q cover %d columns, schema has %d",
				name, len(td.stats), len(td.schema.Columns))
		}
		for i := range td.stats {
			col, got := td.schema.Columns[i].Name, &td.stats[i]
			nulls, want := 0, map[value.Key]int{}
			td.heap.scan(func(t *Tuple) bool {
				if k, ok := value.KeyExact(t.Values[i]); ok {
					want[k]++
				} else {
					nulls++
				}
				return true
			})
			if got.nulls != nulls {
				return fmt.Errorf("storage: stats for %s.%s: %d live nulls vs %d recounted", name, col, got.nulls, nulls)
			}
			if err := got.distinct.check(); err != nil {
				return fmt.Errorf("storage: stats for %s.%s: %v", name, col, err)
			}
			if got.distinct.len() != len(want) {
				return fmt.Errorf("storage: stats for %s.%s: %d live distinct keys vs %d recounted",
					name, col, got.distinct.len(), len(want))
			}
			for k, n := range want {
				if live, _ := got.distinct.get(k); live != n {
					return fmt.Errorf("storage: stats for %s.%s: key %v counted %d live vs %d recounted", name, col, k, live, n)
				}
			}
		}
	}
	return nil
}
