// Package exec is the query and DML executor: a tree-walking evaluator for
// the SQL dialect of the paper, over the storage engine. It supports
// arbitrarily complex predicates with embedded (and correlated) select
// operations, scalar and quantified subqueries, aggregates with GROUP
// BY/HAVING, and — crucially for the rule system — FROM-clause references
// to the paper's transition tables, resolved through a TransTableSource
// supplied by the rule engine.
package exec

import (
	"fmt"

	"sopr/internal/catalog"
	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// TransTableSource materializes transition tables (Section 3 of the paper)
// for the rule currently being evaluated. Rows use the base table's column
// order. The handle reported with each row identifies the underlying tuple
// (live for `inserted`/`new updated`, historical for `deleted`/`old
// updated`).
type TransTableSource interface {
	// TransRows returns the contents of the transition table of the given
	// kind for table (and, for updated-kind tables, column; column is ""
	// for whole-table forms).
	TransRows(kind sqlast.TransKind, table, column string) ([]TransRow, error)
}

// TransRow is one row of a materialized transition table.
type TransRow struct {
	Handle storage.Handle
	Values storage.Row
}

// SelectObserver is notified of tuples read by top-level query evaluation
// when select-triggered rules (Section 5.1) are enabled.
type SelectObserver interface {
	TupleSelected(table string, h storage.Handle)
}

// Store is the executor's window onto stored data: the methods evaluation
// and data manipulation need, satisfied by both the live *storage.Store
// (the write path, which sees in-transaction state) and the immutable
// *storage.Snapshot (the lock-free read path, whose mutating methods
// fail). The executor cannot tell the two apart — indexed and scanned
// access, catalog lookups, and DML all go through here.
type Store interface {
	Catalog() *catalog.Catalog
	Scan(table string, fn func(*storage.Tuple) bool) error
	IndexedLookup(table string, col int, vals ...value.Value) ([]*storage.Tuple, bool, error)
	HasIndex(table string, col int) bool
	// Count, ColumnStats and ClassifyProbe feed the cost-based planner
	// (plan.go, explain.go): table cardinality, per-column cardinality
	// statistics, and plan-time classification of an index probe
	// (including the 2^53 integer-keyspace fallback).
	Count(table string) (int, error)
	ColumnStats(table string, col int) (storage.ColStats, error)
	ClassifyProbe(table string, col int, vals ...value.Value) storage.ProbeClass
	// Insert takes ownership of row (see storage.Store.Insert).
	Insert(table string, row storage.Row) (storage.Handle, error)
	Delete(h storage.Handle) (table string, old storage.Row, err error)
	Update(h storage.Handle, assign map[int]value.Value) (table string, old storage.Row, err error)
}

var (
	_ Store = (*storage.Store)(nil)
	_ Store = (*storage.Snapshot)(nil)
)

// Env carries everything expression evaluation needs: the store (live or
// snapshot), the optional transition-table source (inside rule
// conditions/actions), and the optional select observer.
//
// An Env is per-evaluation scratch state, used by one goroutine at a time.
// Evaluation keeps its intermediate state (scopes, materialized relations,
// hash-join tables, aggregate groups) local to the call; the one result an
// Env keeps across calls is the statement's subquery memo (see subquery),
// which every public entry point — Query, ExecOp, EvalPredicate, Explain —
// clears first, so nothing outlives the statement that computed it (the
// count of visited combinations only paces yields; see visit). That
// discipline is load-bearing for concurrency — the lock-free read path
// (sopr.SynchronizedDB) runs many Envs over published snapshots at once,
// so nothing here may write to the Store or to any package-level state.
// The only shared words the read path touches are the storage layer's
// atomic access-path counters.
type Env struct {
	Store    Store
	Trans    TransTableSource
	Observer SelectObserver
	// Naive turns every optimization off: heap scans instead of index
	// probes (indexProbeFor) and FROM-order nested loops instead of planned
	// joins (planJoins). It is the reference configuration of the
	// differential tests and the baseline of the ablation benchmarks;
	// semantics are identical either way.
	Naive bool
	// Counters, when non-nil, receives planner telemetry (shared across
	// the engine's Envs; all fields are atomics).
	Counters *PlanCounters

	memo    map[*sqlast.Select]memoEntry // this statement's subqueries; created on first use
	visited int                          // combinations visited, which paces yields (see visit)
}

// memoEntry is what the statement knows about one subquery: whether it is
// closed and, if so, its one evaluation's outcome.
type memoEntry struct {
	closed bool
	res    *Result
	err    error
}

// subquery evaluates the embedded select sub in scope sc. A closed
// subquery — every column reference in it resolves inside it, decided by
// the free-variable walk of access.go — is evaluated at most once per
// statement and its result or error reused; a correlated one is evaluated
// on every call. This is sound because a statement evaluates against one
// state: DML evaluates all its predicates and assignments before modifying
// anything, transition tables are fixed while an action statement runs,
// and select observation (Section 5.1) is idempotent. The memo is filled
// on first use, so a subquery whose outer relation is empty is never
// evaluated, and it is off under Naive, the reference configuration.
func (e *Env) subquery(sub *sqlast.Select, sc *scope) (*Result, error) {
	if e.Naive {
		return e.evalSelect(sub, sc)
	}
	m, ok := e.memo[sub]
	if !ok {
		if m.closed = !e.selectMayReferToBlock(sub, nil, nil); m.closed {
			m.res, m.err = e.evalSelect(sub, sc)
		}
		if e.memo == nil {
			e.memo = make(map[*sqlast.Select]memoEntry)
		}
		e.memo[sub] = m
	}
	if !m.closed {
		return e.evalSelect(sub, sc)
	}
	return m.res, m.err
}

// boundRow is one variable binding in a scope: the relation's binding name,
// its column names, the current row, and the underlying tuple handle (0 for
// synthetic rows such as projected subquery output).
type boundRow struct {
	binding string
	table   string // base table name ("" for derived)
	cols    []string
	row     storage.Row
	handle  storage.Handle
	// trans marks rows from transition tables: rule-local data whose reads
	// are not "selections" of the database (Section 5.1).
	trans bool
}

// scope is a lexical scope: the bindings of one query block. Scopes nest
// for correlated subqueries; resolution searches innermost-out.
type scope struct {
	parent *scope
	vars   []*boundRow
	// groupRows, when non-nil, marks an aggregate evaluation context:
	// aggregate functions range over this group's members, each a full set
	// of row positions for this scope's FROM list.
	groupRows *group
}

// lookup resolves a column reference to (binding, column index).
func (s *scope) lookup(qualifier, column string) (*boundRow, int, error) {
	for sc := s; sc != nil; sc = sc.parent {
		var found *boundRow
		idx := -1
		for _, b := range sc.vars {
			if qualifier != "" && b.binding != qualifier {
				continue
			}
			for i, c := range b.cols {
				if c == column {
					if found != nil {
						return nil, 0, fmt.Errorf("exec: ambiguous column reference %q", refName(qualifier, column))
					}
					found = b
					idx = i
				}
			}
		}
		if found != nil {
			return found, idx, nil
		}
	}
	return nil, 0, fmt.Errorf("exec: unknown column %q", refName(qualifier, column))
}

func refName(q, c string) string {
	if q != "" {
		return q + "." + c
	}
	return c
}

// relation is a materialized input to a query block: a binding name, its
// columns, and its rows.
type relation struct {
	binding string
	table   string
	cols    []string
	rows    []TransRow
	trans   bool // transition table (see boundRow.trans)
}

// resolveTableRef materializes a FROM-clause entry.
func (e *Env) resolveTableRef(tr *sqlast.TableRef) (*relation, error) {
	if tr.Trans == sqlast.TransNone {
		schema, err := e.Store.Catalog().Lookup(tr.Table)
		if err != nil {
			return nil, err
		}
		n, err := e.Store.Count(schema.Name)
		if err != nil {
			return nil, err
		}
		rel := &relation{binding: tr.Binding(), table: schema.Name, cols: schema.ColumnNames(), rows: make([]TransRow, 0, n)}
		err = e.Store.Scan(schema.Name, func(t *storage.Tuple) bool {
			rel.rows = append(rel.rows, TransRow{Handle: t.Handle, Values: t.Values})
			return true
		})
		if err != nil {
			return nil, err
		}
		return rel, nil
	}
	// Transition table.
	if e.Trans == nil {
		return nil, fmt.Errorf("exec: transition table %q referenced outside a rule", tr.String())
	}
	schema, err := e.Store.Catalog().Lookup(tr.Table)
	if err != nil {
		return nil, err
	}
	if tr.Column != "" && !schema.HasColumn(tr.Column) {
		return nil, fmt.Errorf("exec: table %q has no column %q", tr.Table, tr.Column)
	}
	rows, err := e.Trans.TransRows(tr.Trans, schema.Name, tr.Column)
	if err != nil {
		return nil, err
	}
	return &relation{binding: tr.Binding(), table: schema.Name, cols: schema.ColumnNames(), rows: rows, trans: true}, nil
}

// lookupSchema returns the catalog schema for a base table.
func (e *Env) lookupSchema(name string) (*catalog.Table, error) {
	return e.Store.Catalog().Lookup(name)
}

// observe reports a base-table tuple read, when select observation is on.
// Transition-table rows are rule-local data and are never observed.
func (e *Env) observe(b *boundRow) {
	if e.Observer != nil && !b.trans && b.handle != 0 && b.table != "" {
		e.Observer.TupleSelected(b.table, b.handle)
	}
}

// truth converts an evaluated value into a Tribool for predicate contexts:
// NULL is Unknown, booleans map directly, any other kind is an error.
func truth(v value.Value) (value.Tribool, error) {
	switch v.Kind() {
	case value.KindNull:
		return value.Unknown, nil
	case value.KindBool:
		return value.FromBool(v.Bool()), nil
	default:
		return value.Unknown, fmt.Errorf("exec: predicate evaluated to non-boolean %s", v)
	}
}
