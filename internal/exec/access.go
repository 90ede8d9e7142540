package exec

// Index-aware access path. evalSelect and matchTuples materialize their
// base-table inputs through this sargability pass: a top-level AND
// conjunct of the form `col = <probe>` or `col IN (<probes>)`, where col
// belongs to the table being materialized and every probe is independent
// of the current query block, lets the storage layer's secondary hash
// index (CREATE INDEX) produce the candidate tuples instead of a full
// heap scan.
//
// Semantics preservation: the index returns, in heap-scan order, exactly
// the tuples for which the conjunct's comparison is True, and the full
// WHERE clause is still evaluated on every candidate afterwards, so
// three-valued logic, residual predicates, result order and
// select-observation (Section 5.1) are indistinguishable from the scan
// path. Whenever a conjunct cannot be proven independent of the block —
// or an index cannot answer a probe exactly (see storage.probeKey) — the
// pass declines and the scan path runs. Like the planned join (plan.go),
// indexed access evaluates WHERE only on candidate rows, so a predicate
// whose evaluation errors on non-candidate rows may not error here.
// indexProbeFor is the path's one entry point, for queries, DML and
// EXPLAIN alike.

import (
	"slices"
	"strings"

	"sopr/internal/catalog"
	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// fromBinding is the planning-time view of one FROM entry: enough to
// resolve column references before any rows are materialized. schema is
// nil when the table is unknown (the scan path will report the error).
type fromBinding struct {
	binding string
	schema  *catalog.Table
}

// planBindings builds the planning view of a FROM list, tolerating
// unknown tables.
func (e *Env) planBindings(from []*sqlast.TableRef) []fromBinding {
	infos := make([]fromBinding, len(from))
	for i, tr := range from {
		infos[i].binding = tr.Binding()
		if schema, err := e.lookupSchema(tr.Table); err == nil {
			infos[i].schema = schema
		}
	}
	return infos
}

// indexProbe is a planned index access on one FROM entry: the column
// position and the probe values of an equality (one value) or IN
// (several values) conjunct.
type indexProbe struct {
	col  int
	vals []value.Value
}

// materializeFrom resolves one FROM entry of sel, routing base-table
// entries through a secondary index when a sargable conjunct allows it
// and falling back to resolveTableRef (heap scan) otherwise.
func (e *Env) materializeFrom(tr *sqlast.TableRef, target int, sel *sqlast.Select, infos []fromBinding, parent *scope) (*relation, error) {
	if tr.Trans == sqlast.TransNone {
		if probe := e.indexProbeFor(sel.Where, target, infos, parent); probe != nil {
			schema := infos[target].schema
			tuples, ok, err := e.Store.IndexedLookup(schema.Name, probe.col, probe.vals...)
			if err != nil {
				return nil, err
			}
			if ok {
				rel := &relation{binding: tr.Binding(), table: schema.Name, cols: schema.ColumnNames()}
				for _, t := range tuples {
					rel.rows = append(rel.rows, TransRow{Handle: t.Handle, Values: t.Values})
				}
				return rel, nil
			}
			// Planned probe declined at lookup time (the 2^53
			// integer-keyspace fallback): count it, then heap scan.
			if e.Counters != nil {
				e.Counters.ProbeFallbacks.Add(1)
			}
		}
	}
	return e.resolveTableRef(tr)
}

// indexProbeFor plans index access for FROM entry target of a block with
// predicate where. It returns nil — heap scan — under Naive, with no
// WHERE, for an unknown table, or when findIndexProbe finds no probe.
func (e *Env) indexProbeFor(where sqlast.Expr, target int, infos []fromBinding, parent *scope) *indexProbe {
	if e.Naive || where == nil || infos[target].schema == nil {
		return nil
	}
	return e.findIndexProbe(where, target, infos, parent)
}

// findIndexProbe searches the top-level AND conjuncts of where for a
// sargable conjunct on FROM entry target: `col = probe`, `probe = col`,
// `col IN (probes)`, or `col IN (subquery)`. It returns nil when no such
// conjunct exists, when no index covers the column, or when a probe
// cannot be proven independent of the current block; the caller then
// scans.
func (e *Env) findIndexProbe(where sqlast.Expr, target int, infos []fromBinding, parent *scope) *indexProbe {
	switch x := where.(type) {
	case *sqlast.Binary:
		if x.Op == sqlast.OpAnd {
			if p := e.findIndexProbe(x.L, target, infos, parent); p != nil {
				return p
			}
			return e.findIndexProbe(x.R, target, infos, parent)
		}
		if x.Op != sqlast.OpEq {
			return nil
		}
		if p := e.probeFromEq(x.L, x.R, target, infos, parent); p != nil {
			return p
		}
		return e.probeFromEq(x.R, x.L, target, infos, parent)
	case *sqlast.InList:
		if x.Negate {
			return nil
		}
		col, ok := e.sargableCol(x.X, target, infos)
		if !ok {
			return nil
		}
		vals := make([]value.Value, 0, len(x.List))
		for _, item := range x.List {
			v, ok := e.probeValue(item, infos, parent)
			if !ok {
				return nil
			}
			vals = append(vals, v)
		}
		return &indexProbe{col: col, vals: vals}
	case *sqlast.InSelect:
		if x.Negate || e.Observer != nil {
			// With select-triggered rules on, plan-time evaluation of the
			// subquery could observe tuples the per-row scan path would
			// not (e.g. when the outer table is empty); decline.
			return nil
		}
		col, ok := e.sargableCol(x.X, target, infos)
		if !ok {
			return nil
		}
		if e.selectMayReferToBlock(x.Sub, infos, nil) {
			return nil
		}
		res, err := e.subquery(x.Sub, parent)
		if err != nil || len(res.Columns) != 1 {
			// The scan path reports any genuine error per row; declining
			// reproduces its behavior exactly (including the no-rows case
			// where the error never surfaces). A closed subquery's result
			// or error is memoized, so the residual WHERE reuses it.
			return nil
		}
		vals := make([]value.Value, len(res.Rows))
		for i, r := range res.Rows {
			vals[i] = r[0]
		}
		return &indexProbe{col: col, vals: vals}
	default:
		return nil
	}
}

// probeFromEq plans `lhs = rhs` with lhs the indexed column: lhs must be
// a column reference resolving uniquely to the target entry, an index
// must cover it, and rhs must evaluate independently of the block.
func (e *Env) probeFromEq(lhs, rhs sqlast.Expr, target int, infos []fromBinding, parent *scope) *indexProbe {
	col, ok := e.sargableCol(lhs, target, infos)
	if !ok {
		return nil
	}
	v, ok := e.probeValue(rhs, infos, parent)
	if !ok {
		return nil
	}
	return &indexProbe{col: col, vals: []value.Value{v}}
}

// sargableCol resolves ref as a column reference landing uniquely on FROM
// entry target (mirroring scope.lookup's innermost-level resolution) and
// reports whether a secondary index covers that column. Ambiguous or
// foreign references decline.
func (e *Env) sargableCol(ref sqlast.Expr, target int, infos []fromBinding) (int, bool) {
	cr, ok := ref.(*sqlast.ColumnRef)
	if !ok {
		return 0, false
	}
	entry, col := -1, -1
	for i, fb := range infos {
		if fb.schema == nil {
			continue
		}
		if cr.Qualifier != "" && cr.Qualifier != fb.binding {
			continue
		}
		if j := fb.schema.ColumnIndex(cr.Column); j >= 0 {
			if entry >= 0 {
				return 0, false // ambiguous in this block
			}
			entry, col = i, j
		}
	}
	if entry != target {
		return 0, false
	}
	return col, e.Store.HasIndex(infos[target].schema.Name, col)
}

// probeValue evaluates a probe expression that must be independent of the
// current block: literals (including arithmetic over them), outer-scope
// column references, and — when select observation is off — subqueries
// free of block references. ok is false when independence cannot be
// proven or evaluation fails (the scan path then reproduces any genuine
// error).
func (e *Env) probeValue(rhs sqlast.Expr, infos []fromBinding, parent *scope) (value.Value, bool) {
	if e.mayReferToBlock(rhs, infos, nil) {
		return value.Null, false
	}
	if e.Observer != nil && exprUsesSelect(rhs) {
		return value.Null, false
	}
	if parent == nil {
		parent = &scope{}
	}
	v, err := e.evalExpr(parent, rhs)
	if err != nil {
		return value.Null, false
	}
	return v, true
}

// mayReferToBlock conservatively reports whether x contains a column
// reference that would resolve to one of the current block's FROM
// bindings. shadows holds the FROM bindings of enclosing subqueries
// between x and the block; a reference they bind never escapes to the
// block (resolution is innermost-out, as in scope.lookup). A nil block
// asks whether x is closed instead: every reference the shadows do not
// bind counts, and so does an aggregate that binds to an enclosing
// block's group (see aggregateEscapes).
func (e *Env) mayReferToBlock(x sqlast.Expr, block []fromBinding, shadows [][]fromBinding) bool {
	return exprAny(x, func(x sqlast.Expr) bool {
		if sub := subqueryOf(x); sub != nil {
			return e.selectMayReferToBlock(sub, block, shadows)
		}
		switch v := x.(type) {
		case *sqlast.ColumnRef:
			for _, level := range shadows {
				if refResolvesIn(v, level) {
					return false
				}
			}
			return block == nil || refResolvesIn(v, block)
		case *sqlast.FuncCall:
			// An aggregate nested in an aggregate's argument binds outward.
			return block == nil && aggregateNames[strings.ToLower(v.Name)] && slices.ContainsFunc(v.Args, exprHasAggregate)
		}
		return false
	})
}

// selectMayReferToBlock extends mayReferToBlock into a subquery: the
// subquery's own FROM list shadows the block for every expression inside
// it except LIMIT, which limitCount evaluates in the enclosing scope. An
// ORDER BY item naming a select-list alias reads the output row
// (orderKeys) and refers to nothing. An unresolvable FROM table reports
// true (decline).
func (e *Env) selectMayReferToBlock(sel *sqlast.Select, block []fromBinding, shadows [][]fromBinding) bool {
	level := e.planBindings(sel.From)
	for _, fb := range level {
		if fb.schema == nil {
			return true
		}
	}
	if block == nil && aggregateEscapes(sel) || e.mayReferToBlock(sel.Limit, block, shadows) {
		return true
	}
	inner := append([][]fromBinding{level}, shadows...)
	refers := func(x sqlast.Expr) bool { return e.mayReferToBlock(x, block, inner) }
	for _, it := range sel.Items {
		if !it.Star && refers(it.Expr) {
			return true
		}
	}
	for _, ob := range sel.OrderBy {
		if !namesAlias(sel, ob.Expr) && refers(ob.Expr) {
			return true
		}
	}
	return refers(sel.Where) || refers(sel.Having) || slices.ContainsFunc(sel.GroupBy, refers)
}

// namesAlias reports whether x is an unqualified reference to one of sel's
// select-list aliases.
func namesAlias(sel *sqlast.Select, x sqlast.Expr) bool {
	cr, ok := x.(*sqlast.ColumnRef)
	return ok && cr.Qualifier == "" && slices.ContainsFunc(sel.Items, func(it sqlast.SelectItem) bool { return it.Alias == cr.Column })
}

// aggregateEscapes reports whether an aggregate call in sel's own clauses
// binds to an enclosing block's group, as evalAggregate searches outward
// from a scope without one: in WHERE, GROUP BY or LIMIT, or in the ORDER
// BY of a block that does not aggregate.
func aggregateEscapes(sel *sqlast.Select) bool {
	if exprHasAggregate(sel.Where) || exprHasAggregate(sel.Limit) || slices.ContainsFunc(sel.GroupBy, exprHasAggregate) {
		return true
	}
	return !selectAggregates(sel) && slices.ContainsFunc(sel.OrderBy, func(ob sqlast.OrderItem) bool {
		return exprHasAggregate(ob.Expr)
	})
}

// refResolvesIn reports whether the reference resolves against any
// binding at one scope level, mirroring scope.lookup's matching.
func refResolvesIn(cr *sqlast.ColumnRef, level []fromBinding) bool {
	for _, fb := range level {
		if fb.schema == nil {
			continue
		}
		if cr.Qualifier != "" && cr.Qualifier != fb.binding {
			continue
		}
		if fb.schema.HasColumn(cr.Column) {
			return true
		}
	}
	return false
}

// exprUsesSelect reports whether the expression embeds any subquery.
func exprUsesSelect(x sqlast.Expr) bool {
	return exprAny(x, func(x sqlast.Expr) bool { return subqueryOf(x) != nil })
}

// subqueryOf returns the select a subquery expression embeds, or nil.
func subqueryOf(x sqlast.Expr) *sqlast.Select {
	switch v := x.(type) {
	case *sqlast.InSelect:
		return v.Sub
	case *sqlast.Exists:
		return v.Sub
	case *sqlast.ScalarSub:
		return v.Sub
	case *sqlast.SubCompare:
		return v.Sub
	}
	return nil
}

// indexedMatches serves matchTuples' predicate scan through an index when
// where carries a sargable conjunct on the single bound table. ok is
// false when the pass declines (caller scans). The returned tuples are in
// heap-scan order and still need the full predicate applied.
func (e *Env) indexedMatches(schema *catalog.Table, binding string, where sqlast.Expr) (tuples []*storage.Tuple, ok bool, err error) {
	probe := e.indexProbeFor(where, 0, []fromBinding{{binding: binding, schema: schema}}, nil)
	if probe == nil {
		return nil, false, nil
	}
	tuples, ok, err = e.Store.IndexedLookup(schema.Name, probe.col, probe.vals...)
	if err == nil && !ok && e.Counters != nil {
		e.Counters.ProbeFallbacks.Add(1)
	}
	return tuples, ok, err
}
