// Package exec is the query and DML executor for the SQL dialect of the
// paper, over the storage engine. It supports arbitrarily complex
// predicates with embedded (and correlated) select operations, scalar and
// quantified subqueries, aggregates with GROUP BY/HAVING, and — crucially
// for the rule system — FROM-clause references to the paper's transition
// tables, resolved through a TransTableSource supplied by the rule engine.
//
// Every statement is bound before it runs (bind.go): names are resolved
// once to (scope depth, relation slot, column ordinal) and each expression
// is compiled into a tree of Go closures over frames (eval.go). Evaluation
// reads base tables in place through storage views and never looks a name
// up.
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
	// View returns the table's rows for reading in place, by position.
	View(table string) (storage.View, error)
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

// Env carries everything evaluation needs: the store (live or snapshot),
// the optional transition-table source (inside rule conditions/actions),
// and the optional select observer.
//
// An Env is per-evaluation scratch state, used by one goroutine at a time.
// Evaluation keeps its intermediate state (frames, relations, hash-join
// tables, aggregate groups) local to the call; the one result an Env keeps
// across calls is the statement's subquery memo (see subquery), which
// every public entry point clears first, so nothing outlives the statement
// that computed it (the count of visited combinations only paces yields;
// see visit). That discipline is load-bearing for concurrency — the
// lock-free read path (sopr.SynchronizedDB) runs many Envs over published
// snapshots at once, so nothing here may write to the Store or to any
// package-level state. The only shared words the read path touches are
// the storage layer's atomic access-path counters.
type Env struct {
	Store    Store
	Trans    TransTableSource
	Observer SelectObserver
	// Naive turns every optimization off: heap scans instead of index
	// probes (probeFor), FROM-order nested loops instead of planned
	// joins (planJoins), and every subquery evaluated where it is used
	// instead of once per statement (subquery). It is the reference
	// configuration of the differential tests and the baseline of the
	// ablation benchmarks; it uses the same binder and evaluator, and
	// semantics are identical either way.
	Naive bool
	// Counters, when non-nil, receives planner telemetry (shared across
	// the engine's Envs; all fields are atomics).
	Counters *PlanCounters

	memo    map[*boundSelect]memoEntry // this statement's subqueries; created on first use
	visited int                        // combinations visited, which paces yields (see visit)
	root    frame                      // the frame of expressions outside any block
}

// memoEntry is one closed subquery's evaluation in this statement, and the
// hashed form of its rows once an IN predicate has asked for it.
type memoEntry struct {
	res *Result
	err error
	set *inSet
}

// rootFrame returns the frame that expressions outside any query block
// evaluate in: rule conditions, VALUES rows and top-level LIMITs.
func (e *Env) rootFrame() *frame {
	e.root.env = e
	return &e.root
}

// subquery evaluates the bound subquery sub with parent frame fr. A closed
// subquery — no reference in it binds outside it (the binder's deps) — is
// evaluated at most once per statement and its result or error reused; a
// correlated one is evaluated on every call. This is sound because a
// statement evaluates against one state: DML evaluates all its predicates
// and assignments before modifying anything, transition tables are fixed
// while an action statement runs, and select observation (Section 5.1) is
// idempotent. The memo is filled on first use, so a subquery whose outer
// relation is empty is never evaluated, and it is off under Naive, the
// reference configuration.
func (e *Env) subquery(sub *boundSelect, fr *frame) (*Result, error) {
	m, ok := e.memoized(sub, fr)
	if !ok {
		return e.evalSelect(sub, fr)
	}
	return m.res, m.err
}

// memoized returns sub's memo entry, evaluating it on first use; ok is
// false when sub is not memoized (correlated, or under Naive).
func (e *Env) memoized(sub *boundSelect, fr *frame) (memoEntry, bool) {
	if e.Naive || !sub.closed {
		return memoEntry{}, false
	}
	m, ok := e.memo[sub]
	if !ok {
		m.res, m.err = e.evalSelect(sub, fr)
		if e.memo == nil {
			e.memo = make(map[*boundSelect]memoEntry)
		}
		e.memo[sub] = m
	}
	return m, true
}

// frame is one query block's row bindings during evaluation: the current
// row of each FROM relation, by slot. Frames nest as blocks do, so a
// column reference bound to (depth, slot, ordinal) walks depth parents and
// reads rows[slot][ordinal]. In the block's group phase (HAVING, the
// select list and ORDER BY of an aggregating block), group is the group
// being output.
type frame struct {
	env    *Env
	parent *frame
	rows   []storage.Row
	group  *group
	saved  []storage.Row // scratch of aggregates rebinding rows to members
	buf    [2]storage.Row
}

// newFrame returns a frame for a block of n relations inside parent.
func (e *Env) newFrame(n int, parent *frame) *frame {
	fr := &frame{env: e, parent: parent}
	if n <= len(fr.buf) {
		fr.rows = fr.buf[:n]
	} else {
		fr.rows = make([]storage.Row, n)
	}
	return fr
}

func refName(q, c string) string {
	if q != "" {
		return q + "." + c
	}
	return c
}

// relation is one FROM entry's rows during a block's evaluation: a base
// table read in place through a storage view, or materialized rows (a
// transition table, the tuples an index probe returned).
type relation struct {
	n    int
	rows []TransRow   // the rows, unless the relation reads view
	view storage.View // the base table, read in place when rows is nil
}

// row returns the values of the row at position p.
func (r *relation) row(p int32) storage.Row {
	if r.rows != nil {
		return r.rows[p].Values
	}
	return r.view.At(int(p)).Values
}

// handle returns the tuple handle of the row at position p.
func (r *relation) handle(p int32) storage.Handle {
	if r.rows != nil {
		return r.rows[p].Handle
	}
	return r.view.At(int(p)).Handle
}

// materialize resolves the FROM entries of blk in order, each through an
// index probe when a sargable conjunct allows it (access.go), through a
// view of the table otherwise, or from the transition-table source.
// Errors come in FROM order, each entry's as the entry is reached.
func (e *Env) materialize(blk *block, fr *frame) ([]relation, error) {
	rels := make([]relation, len(blk.from))
	for i := range blk.from {
		f := &blk.from[i]
		if f.tr.Trans != sqlast.TransNone && e.Trans == nil {
			return nil, fmt.Errorf("exec: transition table %q referenced outside a rule", f.tr.String())
		}
		if f.err != nil {
			return nil, f.err
		}
		if err := e.fill(&rels[i], blk, i, fr); err != nil {
			return nil, err
		}
		if f.dup {
			return nil, fmt.Errorf("exec: duplicate table binding %q in FROM (use aliases)", f.binding)
		}
	}
	return rels, nil
}

// fill materializes FROM entry i of blk into rel.
func (e *Env) fill(rel *relation, blk *block, i int, fr *frame) error {
	f := &blk.from[i]
	if f.tr.Trans != sqlast.TransNone {
		rows, err := e.Trans.TransRows(f.tr.Trans, f.schema.Name, f.tr.Column)
		rel.rows, rel.n = rows, len(rows)
		return err
	}
	if probe := e.probeFor(blk, i, fr); probe != nil {
		tuples, ok, err := e.Store.IndexedLookup(f.schema.Name, probe.col, probe.vals...)
		if err != nil {
			return err
		}
		if ok {
			rel.rows, rel.n = make([]TransRow, len(tuples)), len(tuples)
			for j, t := range tuples {
				rel.rows[j] = TransRow{Handle: t.Handle, Values: t.Values}
			}
			return nil
		}
		// Planned probe declined at lookup time (the 2^53
		// integer-keyspace fallback): count it, then read the table.
		if e.Counters != nil {
			e.Counters.ProbeFallbacks.Add(1)
		}
	}
	v, err := e.Store.View(f.schema.Name)
	rel.view, rel.n = v, v.Len()
	return err
}

// observe reports the base-table tuples of one visited combination, when
// select observation is on. Transition-table rows are rule-local data and
// are never observed.
func (e *Env) observe(blk *block, rels []relation, pos []int32) {
	for i := range rels {
		f := &blk.from[i]
		if f.tr.Trans != sqlast.TransNone {
			continue
		}
		if h := rels[i].handle(pos[i]); h != 0 {
			e.Observer.TupleSelected(f.schema.Name, h)
		}
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
