package exec

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// Result is the output of a query: named columns and rows.
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// String renders the result as a simple aligned table (for the shell and
// examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.Kind() == value.KindString {
				s = v.Str() // print strings unquoted in tables
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	return b.String()
}

// Query evaluates a top-level SELECT statement.
func (e *Env) Query(sel *sqlast.Select) (*Result, error) {
	clear(e.memo)
	return e.evalSelect(sel, nil)
}

// outCol is one planned output column.
type outCol struct {
	name string
	expr sqlast.Expr
}

// sortedRow pairs an output row with its ORDER BY keys.
type sortedRow struct {
	row  storage.Row
	keys storage.Row
}

// evalSelect evaluates a query block in an optional parent scope (for
// correlated subqueries).
func (e *Env) evalSelect(sel *sqlast.Select, parent *scope) (*Result, error) {
	// Materialize FROM inputs, routing base tables through a secondary
	// index when a sargable WHERE conjunct allows it (see access.go).
	infos := e.planBindings(sel.From)
	rels := make([]*relation, len(sel.From))
	seen := make(map[string]bool)
	for i, tr := range sel.From {
		rel, err := e.materializeFrom(tr, i, sel, infos, parent)
		if err != nil {
			return nil, err
		}
		if seen[rel.binding] {
			return nil, fmt.Errorf("exec: duplicate table binding %q in FROM (use aliases)", rel.binding)
		}
		seen[rel.binding] = true
		rels[i] = rel
	}

	// Plan output columns, expanding * and q.*.
	cols, err := planColumns(sel, rels)
	if err != nil {
		return nil, err
	}

	// The evaluation scope for this block.
	sc := &scope{parent: parent, vars: make([]*boundRow, len(rels))}
	for i, rel := range rels {
		sc.vars[i] = &boundRow{binding: rel.binding, table: rel.table, cols: rel.cols, trans: rel.trans}
	}

	var out []sortedRow
	if selectAggregates(sel) {
		out, err = e.evalAggregateQuery(sel, sc, rels, cols)
	} else {
		out, err = e.evalPlainQuery(sel, sc, rels, cols)
	}
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		out = distinctRows(out)
	}
	if len(sel.OrderBy) > 0 {
		sortRows(out, sel.OrderBy)
	}
	if sel.Limit != nil {
		n, err := e.limitCount(sel.Limit, parent)
		if err != nil {
			return nil, err
		}
		if n < len(out) {
			out = out[:n]
		}
	}

	res := &Result{Columns: make([]string, len(cols)), Rows: make([]storage.Row, len(out))}
	for i, c := range cols {
		res.Columns[i] = c.name
	}
	for i, sr := range out {
		res.Rows[i] = sr.row
	}
	return res, nil
}

// selectAggregates reports whether sel is an aggregate query: it groups,
// has HAVING, or aggregates in its select list.
func selectAggregates(sel *sqlast.Select) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// planColumns expands the projection list into concrete output columns.
func planColumns(sel *sqlast.Select, rels []*relation) ([]outCol, error) {
	var cols []outCol
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Qualifier == "":
			if len(rels) == 0 {
				return nil, fmt.Errorf("exec: SELECT * with no FROM clause")
			}
			for _, rel := range rels {
				for _, c := range rel.cols {
					cols = append(cols, outCol{name: c, expr: &sqlast.ColumnRef{Qualifier: rel.binding, Column: c}})
				}
			}
		case it.Star:
			found := false
			for _, rel := range rels {
				if rel.binding == it.Qualifier {
					for _, c := range rel.cols {
						cols = append(cols, outCol{name: c, expr: &sqlast.ColumnRef{Qualifier: rel.binding, Column: c}})
					}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("exec: unknown qualifier %q in %s.*", it.Qualifier, it.Qualifier)
			}
		default:
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
					name = cr.Column
				} else {
					name = it.Expr.String()
				}
			}
			cols = append(cols, outCol{name: name, expr: it.Expr})
		}
	}
	return cols, nil
}

// forEachCombo sets sc.vars to every combination of rows from rels that
// satisfies WHERE and invokes fn with the combination's row positions
// (pos[i] indexes rels[i].rows; fn must not keep pos), in nested-loop
// (odometer) order. A multi-relation block runs the planned join when
// planJoins returns a plan, and the odometer below otherwise.
func (e *Env) forEachCombo(sel *sqlast.Select, sc *scope, rels []*relation, fn func(pos []int32) error) error {
	n := len(rels)
	if n == 0 {
		return e.visit(sel, sc, nil, nil, fn)
	}
	for _, rel := range rels {
		if len(rel.rows) == 0 {
			return nil // empty cross product
		}
	}
	if n > 1 {
		rows := make([]float64, n)
		for i, r := range rels {
			rows[i] = float64(len(r.rows))
		}
		if plan := e.planJoins(sel.Where, rels, rows, e.distinctEstimator(rels)); plan != nil {
			return e.forEachComboPlanned(sel, sc, rels, plan, fn)
		}
	}
	idx := make([]int32, n)
	for {
		if err := e.visit(sel, sc, rels, idx, fn); err != nil {
			return err
		}
		// Advance the index vector (odometer).
		k := n - 1
		for k >= 0 {
			idx[k]++
			if int(idx[k]) < len(rels[k].rows) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// yieldEvery is how many combinations one Env visits between yields of its
// processor. Go runs a processor's expired timers and queued goroutines
// only when it schedules, and preempts a running goroutine only after
// 10 ms, so a read that visits thousands of combinations without blocking
// holds back every timer and goroutine queued behind it — a paced
// writer's wake-up, a connection's deadline — for as long as it runs. An
// Env lives for one statement, so statements that visit fewer
// combinations never yield.
const yieldEvery = 256

// visit binds sc.vars to the rows at positions pos of rels and, when WHERE
// holds, observes them and invokes fn.
func (e *Env) visit(sel *sqlast.Select, sc *scope, rels []*relation, pos []int32, fn func(pos []int32) error) error {
	if e.visited++; e.visited%yieldEvery == 0 {
		runtime.Gosched()
	}
	bindRows(sc.vars, rels, pos)
	ok, err := e.whereHolds(sel, sc)
	if err != nil || !ok {
		return err
	}
	for _, b := range sc.vars {
		e.observe(b)
	}
	return fn(pos)
}

// bindRows binds vars, the bindings of rels, to the rows at positions pos.
func bindRows(vars []*boundRow, rels []*relation, pos []int32) {
	for i, rel := range rels {
		tr := &rel.rows[pos[i]]
		vars[i].row, vars[i].handle = tr.Values, tr.Handle
	}
}

// limitCount evaluates a LIMIT expression, which must be independent of
// the block's rows: it is evaluated once, in the enclosing scope, and must
// yield a non-negative integer.
func (e *Env) limitCount(expr sqlast.Expr, parent *scope) (int, error) {
	if parent == nil {
		parent = &scope{}
	}
	v, err := e.evalExpr(parent, expr)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("exec: LIMIT must be a non-negative integer, got %s", v)
	}
	return int(v.Int()), nil
}

func (e *Env) whereHolds(sel *sqlast.Select, sc *scope) (bool, error) {
	if sel.Where == nil {
		return true, nil
	}
	v, err := e.evalExpr(sc, sel.Where)
	if err != nil {
		return false, err
	}
	t, err := truth(v)
	if err != nil {
		return false, err
	}
	return t.IsTrue(), nil
}

// evalPlainQuery handles non-aggregate queries.
func (e *Env) evalPlainQuery(sel *sqlast.Select, sc *scope, rels []*relation, cols []outCol) ([]sortedRow, error) {
	var out []sortedRow
	err := e.forEachCombo(sel, sc, rels, func([]int32) error {
		row := make(storage.Row, len(cols))
		for i, c := range cols {
			v, err := e.evalExpr(sc, c.expr)
			if err != nil {
				return err
			}
			row[i] = v
		}
		keys, err := e.orderKeys(sel, sc, cols, row)
		if err != nil {
			return err
		}
		out = append(out, sortedRow{row: row, keys: keys})
		return nil
	})
	return out, err
}

// group is one group of an aggregate query: its member combinations as
// row positions into rels, len(rels) positions per member.
type group struct {
	rels []*relation
	n    int // members
	pos  []int32
}

// bind binds vars, the scope's bindings for rels, to member j.
func (g *group) bind(vars []*boundRow, j int) {
	k := len(g.rels)
	bindRows(vars, g.rels, g.pos[j*k:j*k+k])
}

// evalAggregateQuery handles GROUP BY / HAVING / aggregate-projection
// queries.
func (e *Env) evalAggregateQuery(sel *sqlast.Select, sc *scope, rels []*relation, cols []outCol) ([]sortedRow, error) {
	var groups []group
	index := make(map[string]int)
	var key []byte

	err := e.forEachCombo(sel, sc, rels, func(pos []int32) error {
		// Group key from GROUP BY expressions (single group if none).
		key = key[:0]
		for _, g := range sel.GroupBy {
			v, err := e.evalExpr(sc, g)
			if err != nil {
				return err
			}
			key = append(v.Append(key), 0)
		}
		gi, ok := index[string(key)]
		if !ok {
			gi = len(groups)
			index[string(key)] = gi
			groups = append(groups, group{rels: rels})
		}
		gr := &groups[gi]
		gr.n++
		gr.pos = append(gr.pos, pos...)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// With no GROUP BY, an aggregate query over zero rows still produces
	// one row (e.g. SELECT COUNT(*) FROM empty → 0).
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, group{rels: rels})
	}

	var out []sortedRow
	for gi := range groups {
		gr := &groups[gi]
		if gr.n > 0 {
			gr.bind(sc.vars, 0)
		} else {
			// Zero-row group: bind all-NULL rows so stray column references
			// evaluate to NULL rather than crashing.
			for _, b := range sc.vars {
				b.row = make(storage.Row, len(b.cols))
				for i := range b.row {
					b.row[i] = value.Null
				}
				b.handle = 0
			}
		}
		sc.groupRows = gr

		if sel.Having != nil {
			v, err := e.evalExpr(sc, sel.Having)
			if err != nil {
				return nil, err
			}
			t, err := truth(v)
			if err != nil {
				return nil, err
			}
			if !t.IsTrue() {
				sc.groupRows = nil
				continue
			}
		}
		row := make(storage.Row, len(cols))
		for i, c := range cols {
			v, err := e.evalExpr(sc, c.expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		keys, err := e.orderKeys(sel, sc, cols, row)
		if err != nil {
			return nil, err
		}
		out = append(out, sortedRow{row: row, keys: keys})
		sc.groupRows = nil
	}
	return out, nil
}

// orderKeys computes ORDER BY sort keys for one output row. A bare column
// reference that matches an output column name uses the output value
// (supporting ORDER BY on select-list aliases); otherwise the expression is
// evaluated in the row's input scope.
func (e *Env) orderKeys(sel *sqlast.Select, sc *scope, cols []outCol, row storage.Row) (storage.Row, error) {
	if len(sel.OrderBy) == 0 {
		return nil, nil
	}
	keys := make(storage.Row, len(sel.OrderBy))
	for i, ob := range sel.OrderBy {
		// ORDER BY <ordinal> selects the Nth output column (1-based).
		if lit, ok := ob.Expr.(*sqlast.Literal); ok && lit.Val.Kind() == value.KindInt {
			n := lit.Val.Int()
			if n < 1 || int(n) > len(cols) {
				return nil, fmt.Errorf("exec: ORDER BY position %d is out of range (1..%d)", n, len(cols))
			}
			keys[i] = row[n-1]
			continue
		}
		if cr, ok := ob.Expr.(*sqlast.ColumnRef); ok && cr.Qualifier == "" {
			found := false
			for ci, c := range cols {
				if c.name == cr.Column {
					keys[i] = row[ci]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		v, err := e.evalExpr(sc, ob.Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func distinctRows(rows []sortedRow) []sortedRow {
	seen := make(map[string]bool, len(rows))
	var out []sortedRow
	for _, sr := range rows {
		key := ""
		for _, v := range sr.row {
			key += v.String() + "\x00"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, sr)
		}
	}
	return out
}

// sortRows sorts by the precomputed keys; NULL sorts before any value,
// incomparable values compare equal.
func sortRows(rows []sortedRow, order []sqlast.OrderItem) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ob := range order {
			a, b := rows[i].keys[k], rows[j].keys[k]
			var cmp int
			switch {
			case a.IsNull() && b.IsNull():
				cmp = 0
			case a.IsNull():
				cmp = -1
			case b.IsNull():
				cmp = 1
			default:
				c, ok := value.Compare(a, b)
				if !ok {
					c = 0
				}
				cmp = c
			}
			if ob.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}
