package exec

import (
	"fmt"
	"slices"

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

// ExecOp binds and executes a single data manipulation operation and
// returns its affected set. Errors leave any partial changes in place; the
// caller (the engine) rolls back the enclosing transaction.
func (e *Env) ExecOp(stmt sqlast.Statement) (*OpResult, error) {
	return e.ExecBound(Bind(e.Store.Catalog(), stmt))
}

// ExecBound executes a bound data manipulation operation (see ExecOp).
func (e *Env) ExecBound(b *Bound) (*OpResult, error) {
	clear(e.memo)
	b = b.current(e.Store.Catalog())
	if b.dml == nil {
		return nil, fmt.Errorf("exec: %T is not a data manipulation operation", b.stmt)
	}
	if b.dml.err != nil {
		return nil, b.dml.err
	}
	switch s := b.stmt.(type) {
	case *sqlast.Insert:
		return e.execInsert(s, b.dml)
	case *sqlast.Delete:
		return e.execDelete(b.dml)
	default:
		return e.execUpdate(b.dml)
	}
}

func (e *Env) execInsert(s *sqlast.Insert, d *boundDML) (*OpResult, error) {
	res := &OpResult{Table: d.schema.Name}
	width, arity := d.schema.NumColumns(), len(d.targets)
	if d.targets == nil {
		arity = d.schema.NumColumns()
	}
	buildRow := func(vals storage.Row) (storage.Row, error) {
		if len(vals) != arity {
			return nil, fmt.Errorf("exec: INSERT into %q expects %d values, got %d", s.Table, arity, len(vals))
		}
		full := make(storage.Row, width)
		if d.targets == nil {
			copy(full, vals)
		}
		for i, t := range d.targets {
			full[t] = vals[i]
		}
		return full, nil
	}

	// Gather all rows to insert before touching the table, so a
	// select-form insert reading its own target sees the pre-insert state.
	var rows []storage.Row
	if d.query != nil {
		qres, err := e.evalSelect(d.query, nil)
		if err != nil {
			return nil, err
		}
		rows = make([]storage.Row, 0, len(qres.Rows))
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
		fr := e.rootFrame()
		var vals storage.Row
		n := 0
		for _, row := range s.Rows {
			vals = slices.Grow(vals[:0], len(row))
			for _, x := range row {
				if lit, ok := x.(*sqlast.Literal); ok {
					vals = append(vals, lit.Val)
					n++
					continue
				}
				v, err := d.values[n](fr)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
				n++
			}
			full, err := buildRow(vals)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	}

	for _, r := range rows {
		h, err := e.Store.Insert(d.schema.Name, r)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, h)
	}
	return res, nil
}

// matchTuples reads the target table and returns the tuples satisfying
// the statement's predicate (all tuples when the predicate is omitted —
// "where true", Section 2.1), binding each row in fr, the target's frame.
// Embedded selects see the pre-operation state because nothing has been
// modified yet.
func (e *Env) matchTuples(d *boundDML, fr *frame) ([]*storage.Tuple, error) {
	blk := &d.target
	var matched []*storage.Tuple
	keep := func(t *storage.Tuple) error {
		if blk.where != nil {
			fr.rows[0] = t.Values
			if tb, err := blk.where(fr); err != nil || tb != value.True {
				return err
			}
		}
		matched = append(matched, t)
		return nil
	}
	// Indexed access path: a sargable conjunct narrows the candidates; the
	// full predicate is still applied to each, in heap-scan order.
	if probe := e.probeFor(blk, 0, fr); probe != nil {
		cands, ok, err := e.Store.IndexedLookup(d.schema.Name, probe.col, probe.vals...)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, t := range cands {
				if err := keep(t); err != nil {
					return nil, err
				}
			}
			return matched, nil
		}
		if e.Counters != nil {
			e.Counters.ProbeFallbacks.Add(1)
		}
	}
	var evalErr error
	scanErr := e.Store.Scan(d.schema.Name, func(t *storage.Tuple) bool {
		evalErr = keep(t)
		return evalErr == nil
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return matched, nil
}

func (e *Env) execDelete(d *boundDML) (*OpResult, error) {
	matched, err := e.matchTuples(d, e.newFrame(1, e.rootFrame()))
	if err != nil {
		return nil, err
	}
	res := &OpResult{Table: d.schema.Name}
	for _, t := range matched {
		_, old, err := e.Store.Delete(t.Handle)
		if err != nil {
			return nil, err
		}
		res.Deleted = append(res.Deleted, DeletedTuple{Handle: t.Handle, OldRow: old})
	}
	return res, nil
}

func (e *Env) execUpdate(d *boundDML) (*OpResult, error) {
	fr := e.newFrame(1, e.rootFrame())
	matched, err := e.matchTuples(d, fr)
	if err != nil {
		return nil, err
	}

	// Set-oriented semantics: evaluate every assignment against the
	// pre-update state before applying any change.
	type pending struct {
		handle storage.Handle
		assign map[int]value.Value
	}
	plans := make([]pending, 0, len(matched))
	for _, t := range matched {
		fr.rows[0] = t.Values
		assign := make(map[int]value.Value, len(d.set))
		for i, f := range d.set {
			v, err := f(fr)
			if err != nil {
				return nil, err
			}
			assign[d.setCols[i]] = v
		}
		plans = append(plans, pending{handle: t.Handle, assign: assign})
	}

	cols := slices.Clone(d.sorted)
	res := &OpResult{Table: d.schema.Name}
	for _, p := range plans {
		_, old, err := e.Store.Update(p.handle, p.assign)
		if err != nil {
			return nil, err
		}
		res.Updated = append(res.Updated, UpdatedTuple{Handle: p.handle, OldRow: old, Cols: cols})
	}
	return res, nil
}
