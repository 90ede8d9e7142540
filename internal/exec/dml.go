package exec

import (
	"fmt"
	"slices"
	"sort"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// DeletedTuple records one tuple removed by a delete operation: its handle
// and its values at the time of deletion.
type DeletedTuple struct {
	Handle storage.Handle
	OldRow storage.Row
}

// UpdatedTuple records one tuple changed by an update operation: its
// handle, pre-update values, and the indexes of the assigned columns.
// Following Section 2.1 of the paper, a tuple selected by an update belongs
// to the affected set even if the assigned values equal the old values.
type UpdatedTuple struct {
	Handle storage.Handle
	OldRow storage.Row
	Cols   []int
}

// OpResult is the affected set of one executed operation (Section 2.1):
// exactly one of Inserted, Deleted, Updated is populated.
type OpResult struct {
	Table    string
	Inserted []storage.Handle
	Deleted  []DeletedTuple
	Updated  []UpdatedTuple
}

// ExecOp executes a single data manipulation operation and returns its
// affected set. Errors leave any partial changes in place; the caller (the
// engine) rolls back the enclosing transaction.
func (e *Env) ExecOp(stmt sqlast.Statement) (*OpResult, error) {
	clear(e.memo)
	switch s := stmt.(type) {
	case *sqlast.Insert:
		return e.execInsert(s)
	case *sqlast.Delete:
		return e.execDelete(s)
	case *sqlast.Update:
		return e.execUpdate(s)
	default:
		return nil, fmt.Errorf("exec: %T is not a data manipulation operation", stmt)
	}
}

// columnTargets maps an optional column-name list to schema indexes.
func (e *Env) columnTargets(table string, columns []string) ([]int, int, error) {
	schema, err := e.lookupSchema(table)
	if err != nil {
		return nil, 0, err
	}
	if columns == nil {
		idx := make([]int, schema.NumColumns())
		for i := range idx {
			idx[i] = i
		}
		return idx, schema.NumColumns(), nil
	}
	idx := make([]int, len(columns))
	for i, c := range columns {
		j := schema.ColumnIndex(c)
		if j < 0 {
			return nil, 0, fmt.Errorf("exec: table %q has no column %q", table, c)
		}
		idx[i] = j
	}
	return idx, schema.NumColumns(), nil
}

func (e *Env) execInsert(s *sqlast.Insert) (*OpResult, error) {
	targets, width, err := e.columnTargets(s.Table, s.Columns)
	if err != nil {
		return nil, err
	}
	schema, err := e.lookupSchema(s.Table)
	if err != nil {
		return nil, err
	}
	res := &OpResult{Table: schema.Name}

	buildRow := func(vals storage.Row) (storage.Row, error) {
		if len(vals) != len(targets) {
			return nil, fmt.Errorf("exec: INSERT into %q expects %d values, got %d", s.Table, len(targets), len(vals))
		}
		full := make(storage.Row, width)
		for i := range full {
			full[i] = value.Null
		}
		for i, v := range vals {
			full[targets[i]] = v
		}
		return full, nil
	}

	// Gather all rows to insert before touching the table, so a
	// select-form insert reading its own target sees the pre-insert state.
	var rows []storage.Row
	if s.Query != nil {
		qres, err := e.evalSelect(s.Query, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range qres.Rows {
			full, err := buildRow(r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	} else {
		// Each VALUES row is evaluated into one buffer, which buildRow
		// copies into the full-width row handed to the store.
		sc := &scope{}
		var vals storage.Row
		for _, exprRow := range s.Rows {
			vals = slices.Grow(vals[:0], len(exprRow))
			for _, ex := range exprRow {
				v, err := e.evalExpr(sc, ex)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			full, err := buildRow(vals)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	}

	for _, r := range rows {
		h, err := e.Store.Insert(schema.Name, r)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, h)
	}
	return res, nil
}

// matchTuples scans the target table and returns the tuples satisfying the
// predicate (all tuples when the predicate is omitted — "where true",
// Section 2.1). The predicate is evaluated with the row bound under the
// statement's alias (or table name), and may contain embedded selects,
// which see the pre-operation state because nothing has been modified yet.
func (e *Env) matchTuples(table, alias string, where sqlast.Expr) ([]*storage.Tuple, error) {
	schema, err := e.lookupSchema(table)
	if err != nil {
		return nil, err
	}
	binding := alias
	if binding == "" {
		binding = schema.Name
	}
	b := &boundRow{binding: binding, table: schema.Name, cols: schema.ColumnNames()}
	sc := &scope{vars: []*boundRow{b}}
	var matched []*storage.Tuple
	keep := func(t *storage.Tuple) (bool, error) {
		if where == nil {
			return true, nil
		}
		b.row = t.Values
		b.handle = t.Handle
		v, err := e.evalExpr(sc, where)
		if err != nil {
			return false, err
		}
		tb, err := truth(v)
		if err != nil {
			return false, err
		}
		return tb.IsTrue(), nil
	}
	// Indexed access path: a sargable conjunct narrows the candidates; the
	// full predicate is still applied to each, in heap-scan order.
	if cands, ok, err := e.indexedMatches(schema, binding, where); err != nil {
		return nil, err
	} else if ok {
		for _, t := range cands {
			hit, err := keep(t)
			if err != nil {
				return nil, err
			}
			if hit {
				matched = append(matched, t)
			}
		}
		return matched, nil
	}
	var evalErr error
	scanErr := e.Store.Scan(schema.Name, func(t *storage.Tuple) bool {
		hit, err := keep(t)
		if err != nil {
			evalErr = err
			return false
		}
		if hit {
			matched = append(matched, t)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return matched, nil
}

func (e *Env) execDelete(s *sqlast.Delete) (*OpResult, error) {
	schema, err := e.lookupSchema(s.Table)
	if err != nil {
		return nil, err
	}
	matched, err := e.matchTuples(s.Table, s.Alias, s.Where)
	if err != nil {
		return nil, err
	}
	res := &OpResult{Table: schema.Name}
	for _, t := range matched {
		_, old, err := e.Store.Delete(t.Handle)
		if err != nil {
			return nil, err
		}
		res.Deleted = append(res.Deleted, DeletedTuple{Handle: t.Handle, OldRow: old})
	}
	return res, nil
}

func (e *Env) execUpdate(s *sqlast.Update) (*OpResult, error) {
	schema, err := e.lookupSchema(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve assignment targets.
	colIdx := make([]int, len(s.Set))
	for i, a := range s.Set {
		j := schema.ColumnIndex(a.Column)
		if j < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, a.Column)
		}
		colIdx[i] = j
	}
	matched, err := e.matchTuples(s.Table, s.Alias, s.Where)
	if err != nil {
		return nil, err
	}

	// Set-oriented semantics: evaluate every assignment against the
	// pre-update state before applying any change.
	binding := s.Alias
	if binding == "" {
		binding = schema.Name
	}
	b := &boundRow{binding: binding, table: schema.Name, cols: schema.ColumnNames()}
	sc := &scope{vars: []*boundRow{b}}
	type pending struct {
		handle storage.Handle
		assign map[int]value.Value
	}
	plans := make([]pending, 0, len(matched))
	for _, t := range matched {
		b.row = t.Values
		b.handle = t.Handle
		assign := make(map[int]value.Value, len(s.Set))
		for i, a := range s.Set {
			v, err := e.evalExpr(sc, a.Expr)
			if err != nil {
				return nil, err
			}
			assign[colIdx[i]] = v
		}
		plans = append(plans, pending{handle: t.Handle, assign: assign})
	}

	cols := append([]int(nil), colIdx...)
	sort.Ints(cols)
	res := &OpResult{Table: schema.Name}
	for _, p := range plans {
		_, old, err := e.Store.Update(p.handle, p.assign)
		if err != nil {
			return nil, err
		}
		res.Updated = append(res.Updated, UpdatedTuple{Handle: p.handle, OldRow: old, Cols: cols})
	}
	return res, nil
}
