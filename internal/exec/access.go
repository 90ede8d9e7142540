package exec

// Index-aware access path. evalSelect and matchTuples choose each
// base-table input's access through this sargability pass: a top-level
// AND conjunct of the form `col = <probe>` or `col IN (<probes>)`, where
// col belongs to the table being materialized and every probe is
// independent of the current query block, lets the storage layer's
// secondary hash index (CREATE INDEX) produce the candidate tuples;
// otherwise the relation reads the table version in place, by position,
// through a storage.View. The binder keeps each such conjunct's sides open, and
// their deps decide independence: a probe may not bind to the block, nor
// embed a subquery that names an unknown table.
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
// probeFor is the path's one entry point, for queries, DML and EXPLAIN
// alike.

import (
	"sopr/internal/value"
)

// indexProbe is a planned index access on one FROM entry: the column
// position and the probe values of an equality (one value) or IN
// (several values) conjunct.
type indexProbe struct {
	col  int
	vals []value.Value
}

// probeFor plans index access for FROM entry target of blk, whose frame
// is fr (rows not yet bound). It returns nil — read the table — under
// Naive, for a transition table, or when no top-level conjunct of WHERE,
// taken left to right, yields a probe: `col = probe`, `probe = col`, `col
// IN (probes)` or `col IN (subquery)`, where col is a column of target
// that an index covers and every probe is independent of the block and
// evaluates without error (the scan path then reproduces any genuine
// error). With select observation on, a probe that embeds a subquery
// declines: evaluating it here could observe tuples the per-row scan
// path would not (e.g. when the table is empty).
func (e *Env) probeFor(blk *block, target int, fr *frame) *indexProbe {
	f := &blk.from[target]
	if e.Naive || f.schema == nil {
		return nil
	}
	sargable := func(c *cx) (int, bool) {
		if c.leaf != leafCol || c.ref.depth != 0 || c.ref.slot != target {
			return 0, false
		}
		return c.ref.ord, e.Store.HasIndex(f.schema.Name, c.ref.ord)
	}
	probe := func(c *cx) (value.Value, bool) {
		if c.deps.refersTo(blk.lv) || e.Observer != nil && c.deps.sub {
			return value.Null, false
		}
		v, err := c.eval(fr)
		return v, err == nil
	}
	for i := range blk.conj {
		c := &blk.conj[i]
		switch c.kind {
		case conjEq:
			for _, side := range [2][2]*cx{{&c.l, &c.r}, {&c.r, &c.l}} {
				if col, ok := sargable(side[0]); ok {
					if v, ok := probe(side[1]); ok {
						return &indexProbe{col: col, vals: []value.Value{v}}
					}
				}
			}
		case conjIn:
			col, ok := sargable(&c.l)
			if !ok {
				continue
			}
			vals := make([]value.Value, len(c.list))
			for j := range c.list {
				if vals[j], ok = probe(&c.list[j]); !ok {
					break
				}
			}
			if ok {
				return &indexProbe{col: col, vals: vals}
			}
		case conjInSelect:
			if e.Observer != nil {
				continue
			}
			col, ok := sargable(&c.l)
			if !ok || c.sub.deps.refersTo(blk.lv) {
				continue
			}
			res, err := e.subquery(c.sub, fr)
			if err != nil || len(res.Columns) != 1 {
				// The scan path reports any genuine error per row;
				// declining reproduces its behavior exactly (including
				// the no-rows case where the error never surfaces). A
				// closed subquery's result or error is memoized, so the
				// residual WHERE reuses it.
				continue
			}
			vals := make([]value.Value, len(res.Rows))
			for j, r := range res.Rows {
				vals[j] = r[0]
			}
			return &indexProbe{col: col, vals: vals}
		}
	}
	return nil
}
