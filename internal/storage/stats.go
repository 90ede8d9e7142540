// Per-column statistics for the cost-based planner.
//
// Every table maintains, for each column, the exact number of NULLs and an
// exact distinct-value histogram (a count per value.KeyExact key). The
// statistics are updated incrementally by the same three tuple-mutation
// primitives that maintain secondary indexes and the handle directory
// (applyInsert, applyRemove, applySet), which the undo log and the WAL
// replay primitives also go through — so stats stay exact under rollback
// and crash recovery with no extra machinery, and CheckStats can verify
// them against a from-scratch rebuild after any operation history.
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
// value key plus the NULL count. Distinct cardinality is len(distinct).
type colStats struct {
	distinct map[value.Key]int
	nulls    int
	gen      uint64 // store generation the counts were made in (heap.go)
}

func newColStats(gen uint64) *colStats {
	return &colStats{distinct: make(map[value.Key]int), gen: gen}
}

func (cs *colStats) add(v value.Value) {
	k, ok := value.KeyExact(v)
	if !ok {
		cs.nulls++
		return
	}
	cs.distinct[k]++
}

func (cs *colStats) remove(v value.Value) {
	k, ok := value.KeyExact(v)
	if !ok {
		cs.nulls--
		return
	}
	if n := cs.distinct[k]; n <= 1 {
		delete(cs.distinct, k)
	} else {
		cs.distinct[k] = n - 1
	}
}

// clone copies the statistic into the writer's generation, before the
// first change to a column's counts that a published snapshot may reach.
func (cs *colStats) clone(w *cowState) *colStats {
	c := &colStats{distinct: make(map[value.Key]int, len(cs.distinct)), nulls: cs.nulls, gen: w.gen}
	for k, n := range cs.distinct {
		c.distinct[k] = n
	}
	w.copied += int64(len(cs.distinct))
	return c
}

// newTableStats allocates empty column statistics for a schema.
func newTableStats(n int, gen uint64) []*colStats {
	stats := make([]*colStats, n)
	for i := range stats {
		stats[i] = newColStats(gen)
	}
	return stats
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
	cs := td.stats[col]
	return ColStats{Rows: td.heap.n, Distinct: len(cs.distinct), Nulls: cs.nulls}, nil
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
	var ix *secondaryIndex
	for _, cand := range td.indexes {
		if cand.col == col {
			ix = cand
			break
		}
	}
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
// from-scratch recount of the heap, returning the first discrepancy. Like
// CheckIndexes, tests run it after randomized operation histories
// (rollbacks, replays, clones) to prove incremental maintenance exact.
func (s *Store) CheckStats() error {
	for name, td := range s.tables {
		if len(td.stats) != len(td.schema.Columns) {
			return fmt.Errorf("storage: stats for %q cover %d columns, schema has %d",
				name, len(td.stats), len(td.schema.Columns))
		}
		fresh := newTableStats(len(td.schema.Columns), 0)
		td.heap.scan(func(t *Tuple) bool {
			for i, cs := range fresh {
				cs.add(t.Values[i])
			}
			return true
		})
		for i, want := range fresh {
			got := td.stats[i]
			if got.nulls != want.nulls {
				return fmt.Errorf("storage: stats for %s.%s: %d live nulls vs %d recounted",
					name, td.schema.Columns[i].Name, got.nulls, want.nulls)
			}
			if len(got.distinct) != len(want.distinct) {
				return fmt.Errorf("storage: stats for %s.%s: %d live distinct keys vs %d recounted",
					name, td.schema.Columns[i].Name, len(got.distinct), len(want.distinct))
			}
			for k, n := range want.distinct {
				if got.distinct[k] != n {
					return fmt.Errorf("storage: stats for %s.%s: key %v counted %d live vs %d recounted",
						name, td.schema.Columns[i].Name, k, got.distinct[k], n)
				}
			}
		}
	}
	return nil
}
