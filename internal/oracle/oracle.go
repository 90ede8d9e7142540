// Package oracle is a deliberately slow, obviously-correct reference
// interpreter of the paper's Sections 2–4, used to differentially test the
// real engine. It interprets gen.Workload models directly — it shares no
// parser, planner, executor, access-path, or rule-engine code with the
// system under test. The only shared substrate is internal/value (the
// scalar domain: comparison, arithmetic, coercion), deliberately, so both
// sides agree on what the values themselves mean.
//
// What it re-implements, straight from the paper:
//
//   - transition effects and their composition, from Definition 2.1's four
//     cases, with old-value maintenance as in Figure 1's trans-info;
//   - the Figure 1 rule-processing loop: init-trans-info on the first
//     external transition, modify-trans-info for every subsequent
//     transition, per-rule net-transition triggering, consideration,
//     rollback actions, and the footnote 7 runaway guard;
//   - the footnote 8 scope alternatives (since considered / since
//     triggered) and Section 5.3 PROCESS RULES triggering points;
//   - Section 4.4 priority selection with an injectable tie-break, so a
//     differential run can drive engine and oracle through the same
//     selection sequence.
//
// Evaluation is naive full scan everywhere: no indexes, no sargability
// analysis, no hash joins. One representation choice is load-bearing: the
// paper's system tuple handles are assigned in row-arrival order, and an
// insert-select's row order follows the physical order of its source
// table, so the oracle keeps tuples in a heap with the same
// swap-with-last deletion discipline the storage engine uses — otherwise
// identical executions would assign the same values to different handles
// and every comparison after the first delete would be noise.
package oracle

import (
	"fmt"
	"sort"

	"sopr/internal/gen"
	"sopr/internal/value"
)

// ---------------------------------------------------------------------------
// Transition effects (Definition 2.1 with Figure 1's value maintenance)
// ---------------------------------------------------------------------------

type delEnt struct {
	table string
	old   []value.Value
}

type updEnt struct {
	table string
	old   []value.Value
	cols  map[int]bool
}

// eff is a composite transition effect [I, D, U].
type eff struct {
	ins map[uint64]string
	del map[uint64]delEnt
	upd map[uint64]updEnt
}

func newEff() *eff {
	return &eff{ins: map[uint64]string{}, del: map[uint64]delEnt{}, upd: map[uint64]updEnt{}}
}

func (e *eff) clone() *eff {
	c := newEff()
	for h, t := range e.ins {
		c.ins[h] = t
	}
	for h, d := range e.del {
		c.del[h] = d
	}
	for h, u := range e.upd {
		cols := make(map[int]bool, len(u.cols))
		for i := range u.cols {
			cols[i] = true
		}
		c.upd[h] = updEnt{table: u.table, old: u.old, cols: cols}
	}
	return c
}

// addOp folds one operation's affected set into the effect — composition
// with a single-operation transition, per Definition 2.1:
//
//	insert then delete  → nothing (handle leaves I, never enters D)
//	update then delete  → delete with the pre-transition value
//	insert then update  → still an insert (current value read live)
//	update then update  → one update, columns unioned, first old value
func (e *eff) addOp(res *opResult) {
	for _, h := range res.inserted {
		e.ins[h] = res.table
	}
	for _, d := range res.deleted {
		if _, ok := e.ins[d.handle]; ok {
			delete(e.ins, d.handle)
			continue
		}
		old := d.old
		if u, ok := e.upd[d.handle]; ok {
			old = u.old
			delete(e.upd, d.handle)
		}
		e.del[d.handle] = delEnt{table: res.table, old: old}
	}
	for _, u := range res.updated {
		if _, ok := e.ins[u.handle]; ok {
			continue
		}
		entry, ok := e.upd[u.handle]
		if !ok {
			entry = updEnt{table: res.table, old: u.old, cols: map[int]bool{}}
		}
		for _, c := range u.cols {
			entry.cols[c] = true
		}
		e.upd[u.handle] = entry
	}
}

// apply composes a subsequent transition into this one (Definition 2.1):
//
//	I = (I1 ∪ I2) − D2
//	D = (D1 ∪ D2) − I1
//	U = (U1 ∪ U2) − (D2 ∪ I1)
func (e *eff) apply(next *eff) {
	for h, t := range next.ins {
		e.ins[h] = t
	}
	for h, d := range next.del {
		if _, ok := e.ins[h]; ok {
			delete(e.ins, h) // tuple born and dead within the composite: nothing
			continue
		}
		old := d.old
		if u, ok := e.upd[h]; ok {
			old = u.old
			delete(e.upd, h)
		}
		e.del[h] = delEnt{table: d.table, old: old}
	}
	for h, nu := range next.upd {
		if _, ok := e.ins[h]; ok {
			continue
		}
		entry, ok := e.upd[h]
		if !ok {
			entry = updEnt{table: nu.table, old: nu.old, cols: map[int]bool{}}
		}
		for c := range nu.cols {
			entry.cols[c] = true
		}
		e.upd[h] = entry
	}
}

// satisfies reports whether the effect satisfies any of the rule's basic
// transition predicates (the Section 3 triggering test).
func (db *DB) satisfies(e *eff, preds []gen.Pred) bool {
	for _, p := range preds {
		switch p.Op {
		case "inserted":
			for _, t := range e.ins {
				if t == p.Table {
					return true
				}
			}
		case "deleted":
			for _, d := range e.del {
				if d.table == p.Table {
					return true
				}
			}
		case "updated":
			colIdx := -1
			if p.Column != "" {
				colIdx = db.w.Table(p.Table).ColIndex(p.Column)
			}
			for _, u := range e.upd {
				if u.table != p.Table {
					continue
				}
				if colIdx < 0 || u.cols[colIdx] {
					return true
				}
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Storage: heap tables with system tuple handles
// ---------------------------------------------------------------------------

type tuple struct {
	handle uint64
	row    []value.Value
}

type table struct {
	def  *gen.Table
	rows []*tuple
	pos  map[uint64]int
}

func (t *table) insertTuple(tp *tuple) {
	t.pos[tp.handle] = len(t.rows)
	t.rows = append(t.rows, tp)
}

// removeHandle deletes by swap-with-last — the same physical discipline as
// the storage engine, so insert-select row order (and hence handle
// assignment) matches.
func (t *table) removeHandle(h uint64) *tuple {
	p := t.pos[h]
	tp := t.rows[p]
	last := len(t.rows) - 1
	if p != last {
		t.rows[p] = t.rows[last]
		t.pos[t.rows[p].handle] = p
	}
	t.rows = t.rows[:last]
	delete(t.pos, h)
	return tp
}

// DB is the oracle's database: tables, rules, and the Figure 1 machinery.
type DB struct {
	w      *gen.Workload
	tables map[string]*table
	next   uint64
	saved  map[string][]tuple // every table's rows at transaction start

	rules  []*orule
	higher map[string][]string // priority edges: before → afters
	choose func([]string) string
}

type orule struct {
	def       *gen.Rule
	transInfo *eff
}

// New builds an oracle database for the workload's schema and rules.
// choose injects the rule-selection order: it receives the maximal (by
// priority) triggered rule names in ascending order and must return one of
// them. It must be the same pure function the engine's SelectHook uses.
func New(w *gen.Workload, choose func([]string) string) *DB {
	db := &DB{
		w:      w,
		tables: map[string]*table{},
		saved:  map[string][]tuple{},
		higher: map[string][]string{},
		choose: choose,
	}
	for i := range w.Tables {
		t := &w.Tables[i]
		db.tables[t.Name] = &table{def: t, pos: map[uint64]int{}}
	}
	for i := range w.Rules {
		db.rules = append(db.rules, &orule{def: &w.Rules[i]})
	}
	for _, p := range w.Priorities {
		db.higher[p.Before] = append(db.higher[p.Before], p.After)
	}
	return db
}

// isHigher reports a strictly-higher priority via the transitive closure
// of declared edges.
func (db *DB) isHigher(a, b string) bool {
	if a == b {
		return false
	}
	seen := map[string]bool{a: true}
	stack := []string{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range db.higher[n] {
			if m == b {
				return true
			}
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Operations (Section 2.1), naive full-scan evaluation
// ---------------------------------------------------------------------------

type delTuple struct {
	handle uint64
	old    []value.Value
}

type updTuple struct {
	handle uint64
	old    []value.Value
	cols   []int
}

type opResult struct {
	table    string
	inserted []uint64
	deleted  []delTuple
	updated  []updTuple
}

// coerce stores v into a column of the given kind (NULL passes through).
func coerce(v value.Value, kind value.Kind) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	return value.Coerce(v, kind)
}

func (db *DB) insertRow(t *table, row []value.Value) (uint64, error) {
	coerced := make([]value.Value, len(row))
	for i, v := range row {
		cv, err := coerce(v, t.def.Cols[i].ValueKind())
		if err != nil {
			return 0, fmt.Errorf("oracle: column %s.%s: %v", t.def.Name, t.def.Cols[i].Name, err)
		}
		coerced[i] = cv
	}
	db.next++
	h := db.next
	t.insertTuple(&tuple{handle: h, row: coerced})
	return h, nil
}

// srcRows returns the full-width rows of a FROM source: a base table in
// physical (heap) order, or a transition table in ascending handle order
// as Section 3 materializes them from the rule's trans-info.
func (db *DB) srcRows(src gen.Source, ti *eff) ([][]value.Value, error) {
	if src.Trans == "" {
		t := db.tables[src.Table]
		out := make([][]value.Value, len(t.rows))
		for i, tp := range t.rows {
			out[i] = tp.row
		}
		return out, nil
	}
	if ti == nil {
		return nil, nil
	}
	colIdx := -1
	if src.Column != "" {
		colIdx = db.w.Table(src.Table).ColIndex(src.Column)
	}
	var handles []uint64
	switch src.Trans {
	case "inserted":
		for h, t := range ti.ins {
			if t == src.Table {
				handles = append(handles, h)
			}
		}
	case "deleted":
		for h, d := range ti.del {
			if d.table == src.Table {
				handles = append(handles, h)
			}
		}
	case "old", "new":
		for h, u := range ti.upd {
			if u.table != src.Table {
				continue
			}
			if colIdx >= 0 && !u.cols[colIdx] {
				continue
			}
			handles = append(handles, h)
		}
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	out := make([][]value.Value, 0, len(handles))
	for _, h := range handles {
		switch src.Trans {
		case "inserted", "new":
			t := db.tables[src.Table]
			p, ok := t.pos[h]
			if !ok {
				return nil, fmt.Errorf("oracle: transition tuple %d vanished", h)
			}
			out = append(out, t.rows[p].row)
		case "deleted":
			out = append(out, ti.del[h].old)
		case "old":
			out = append(out, ti.upd[h].old)
		}
	}
	return out, nil
}

// subRows evaluates a one-source subquery: source rows filtered by the
// WHERE predicate (kept only on True — three-valued logic).
func (db *DB) subRows(sub *gen.SubQuery, ti *eff) ([][]value.Value, error) {
	rows, err := db.srcRows(sub.Src, ti)
	if err != nil {
		return nil, err
	}
	if sub.Where == nil {
		return rows, nil
	}
	t := db.w.Table(sub.Src.Table)
	var out [][]value.Value
	for _, row := range rows {
		tb, err := db.evalWhere(sub.Where, t, row, ti)
		if err != nil {
			return nil, err
		}
		if tb.IsTrue() {
			out = append(out, row)
		}
	}
	return out, nil
}

// evalWhere evaluates a predicate tree against one row with SQL
// three-valued logic. Atoms reference the row's own table columns (the
// generator emits no correlated subqueries).
func (db *DB) evalWhere(wh *gen.Where, t *gen.Table, row []value.Value, ti *eff) (value.Tribool, error) {
	switch {
	case wh == nil:
		return value.True, nil
	case wh.Atom != nil:
		return db.evalAtom(wh.Atom, t, row, ti)
	case wh.And != nil:
		out := value.True
		for _, c := range wh.And {
			tb, err := db.evalWhere(c, t, row, ti)
			if err != nil {
				return value.Unknown, err
			}
			out = out.And(tb)
			if out == value.False {
				break // short-circuit, as the evaluator does
			}
		}
		return out, nil
	case wh.Or != nil:
		out := value.False
		for _, c := range wh.Or {
			tb, err := db.evalWhere(c, t, row, ti)
			if err != nil {
				return value.Unknown, err
			}
			out = out.Or(tb)
			if out == value.True {
				break
			}
		}
		return out, nil
	default:
		tb, err := db.evalWhere(wh.Not, t, row, ti)
		if err != nil {
			return value.Unknown, err
		}
		return tb.Not(), nil
	}
}

// cmpTri applies a comparison operator with NULL → Unknown.
func cmpTri(a, b value.Value, op string) (value.Tribool, error) {
	if a.IsNull() || b.IsNull() {
		return value.Unknown, nil
	}
	cmp, ok := value.Compare(a, b)
	if !ok {
		return value.Unknown, fmt.Errorf("oracle: cannot compare %s with %s", a.Kind(), b.Kind())
	}
	switch op {
	case "=":
		return value.FromBool(cmp == 0), nil
	case "<>":
		return value.FromBool(cmp != 0), nil
	case "<":
		return value.FromBool(cmp < 0), nil
	case "<=":
		return value.FromBool(cmp <= 0), nil
	case ">":
		return value.FromBool(cmp > 0), nil
	case ">=":
		return value.FromBool(cmp >= 0), nil
	default:
		return value.Unknown, fmt.Errorf("oracle: unknown operator %q", op)
	}
}

func (db *DB) evalAtom(a *gen.Atom, t *gen.Table, row []value.Value, ti *eff) (value.Tribool, error) {
	v := row[t.ColIndex(a.Col)]
	switch a.Op {
	case "isnull":
		return value.FromBool(v.IsNull()), nil
	case "notnull":
		return value.FromBool(!v.IsNull()), nil
	case "in":
		rows, err := db.subRows(a.Sub, ti)
		if err != nil {
			return value.Unknown, err
		}
		ci := db.w.Table(a.Sub.Src.Table).ColIndex(a.Sub.Col)
		if v.IsNull() {
			if len(rows) > 0 {
				return value.Unknown, nil
			}
			return value.False, nil
		}
		sawNull := false
		for _, r := range rows {
			m := r[ci]
			if m.IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := value.Compare(v, m); ok && cmp == 0 {
				return value.True, nil
			}
		}
		if sawNull {
			return value.Unknown, nil
		}
		return value.False, nil
	default:
		return cmpTri(v, a.Lit.Value(), a.Op)
	}
}

// evalJoin evaluates a multi-source join condition by brute force: a
// nested loop over the cross product of the sources in declared order,
// stopping at the first combination where every ON conjunct and atom is
// True. No join ordering, no hashing — the planner in the system under
// test must be observationally equivalent to this.
func (db *DB) evalJoin(c *gen.Cond, ti *eff) (bool, error) {
	rowsets := make([][][]value.Value, len(c.Srcs))
	defs := make([]*gen.Table, len(c.Srcs))
	for i, s := range c.Srcs {
		rows, err := db.srcRows(s.Src, ti)
		if err != nil {
			return false, err
		}
		rowsets[i] = rows
		defs[i] = db.w.Table(s.Src.Table)
	}
	combo := make([][]value.Value, len(c.Srcs))
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(c.Srcs) {
			for _, on := range c.On {
				l := combo[on.LSrc][defs[on.LSrc].ColIndex(on.LCol)]
				r := combo[on.RSrc][defs[on.RSrc].ColIndex(on.RCol)]
				tb, err := cmpTri(l, r, "=")
				if err != nil || !tb.IsTrue() {
					return false, err
				}
			}
			for ai := range c.Atoms {
				a := &c.Atoms[ai]
				v := combo[a.Src][defs[a.Src].ColIndex(a.Col)]
				var tb value.Tribool
				var err error
				switch a.Op {
				case "isnull":
					tb = value.FromBool(v.IsNull())
				case "notnull":
					tb = value.FromBool(!v.IsNull())
				default:
					tb, err = cmpTri(v, a.Lit.Value(), a.Op)
				}
				if err != nil || !tb.IsTrue() {
					return false, err
				}
			}
			return true, nil
		}
		for _, row := range rowsets[i] {
			combo[i] = row
			ok, err := rec(i + 1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	return rec(0)
}

// evalCond evaluates a rule condition (IF TRUE when nil); only a True
// result lets the rule fire.
func (db *DB) evalCond(c *gen.Cond, ti *eff) (bool, error) {
	if c == nil {
		return true, nil
	}
	if c.Kind == "join" || c.Kind == "notjoin" {
		match, err := db.evalJoin(c, ti)
		if err != nil {
			return false, err
		}
		return match == (c.Kind == "join"), nil
	}
	rows, err := db.subRows(&c.Sub, ti)
	if err != nil {
		return false, err
	}
	switch c.Kind {
	case "exists":
		return len(rows) > 0, nil
	case "notexists":
		return len(rows) == 0, nil
	}
	// Aggregate compare: (select agg(...) from ...) op lit.
	var agg value.Value
	if c.Agg == "count" && c.Sub.Col == "" {
		agg = value.NewInt(int64(len(rows)))
	} else {
		ci := db.w.Table(c.Sub.Src.Table).ColIndex(c.Sub.Col)
		var vals []value.Value
		for _, r := range rows {
			if !r[ci].IsNull() {
				vals = append(vals, r[ci])
			}
		}
		switch c.Agg {
		case "count":
			agg = value.NewInt(int64(len(vals)))
		case "sum":
			if len(vals) == 0 {
				agg = value.Null
				break
			}
			sumI := int64(0)
			sumF := 0.0
			allInt := true
			for _, v := range vals {
				if v.Kind() == value.KindInt {
					sumI += v.Int()
					sumF += float64(v.Int())
				} else {
					allInt = false
					sumF += v.Float()
				}
			}
			if allInt {
				agg = value.NewInt(sumI)
			} else {
				agg = value.NewFloat(sumF)
			}
		case "min", "max":
			if len(vals) == 0 {
				agg = value.Null
				break
			}
			best := vals[0]
			for _, v := range vals[1:] {
				cmp, ok := value.Compare(v, best)
				if !ok {
					return false, fmt.Errorf("oracle: %s over incomparable values", c.Agg)
				}
				if (c.Agg == "min" && cmp < 0) || (c.Agg == "max" && cmp > 0) {
					best = v
				}
			}
			agg = best
		default:
			return false, fmt.Errorf("oracle: unknown aggregate %q", c.Agg)
		}
	}
	tb, err := cmpTri(agg, c.Lit.Value(), c.Op)
	if err != nil {
		return false, err
	}
	return tb.IsTrue(), nil
}

// matchRows returns the tuples of the statement's target satisfying the
// WHERE predicate, in physical (heap) order — a full scan with the whole
// predicate applied to every row.
func (db *DB) matchRows(t *table, wh *gen.Where, ti *eff) ([]*tuple, error) {
	var out []*tuple
	for _, tp := range t.rows {
		tb, err := db.evalWhere(wh, t.def, tp.row, ti)
		if err != nil {
			return nil, err
		}
		if tb.IsTrue() {
			out = append(out, tp)
		}
	}
	return out, nil
}

// execStmt executes one operation and returns its affected set.
func (db *DB) execStmt(s *gen.Stmt, ti *eff) (*opResult, error) {
	t := db.tables[s.Table]
	res := &opResult{table: s.Table}
	switch s.Kind {
	case "insert":
		// All rows are materialized before the first insert (the engine
		// gathers, then inserts), though for literal rows it cannot matter.
		for _, litRow := range s.Rows {
			row := make([]value.Value, len(litRow))
			for i, l := range litRow {
				row[i] = l.Value()
			}
			h, err := db.insertRow(t, row)
			if err != nil {
				return nil, err
			}
			res.inserted = append(res.inserted, h)
		}
	case "inssel":
		// Gather source rows first so an insert-select reading its own
		// target sees the pre-insert state.
		srcT := db.w.Table(s.Src.Table)
		rows, err := db.srcRows(*s.Src, ti)
		if err != nil {
			return nil, err
		}
		var toInsert [][]value.Value
		for _, row := range rows {
			if s.Where != nil {
				tb, err := db.evalWhere(s.Where, srcT, row, ti)
				if err != nil {
					return nil, err
				}
				if !tb.IsTrue() {
					continue
				}
			}
			proj := make([]value.Value, len(s.Proj))
			for i, p := range s.Proj {
				if p.Col != "" {
					proj[i] = row[srcT.ColIndex(p.Col)]
				} else {
					proj[i] = p.Lit.Value()
				}
			}
			toInsert = append(toInsert, proj)
		}
		for _, row := range toInsert {
			h, err := db.insertRow(t, row)
			if err != nil {
				return nil, err
			}
			res.inserted = append(res.inserted, h)
		}
	case "delete":
		matched, err := db.matchRows(t, s.Where, ti)
		if err != nil {
			return nil, err
		}
		for _, tp := range matched {
			t.removeHandle(tp.handle)
			res.deleted = append(res.deleted, delTuple{handle: tp.handle, old: tp.row})
		}
	case "update":
		matched, err := db.matchRows(t, s.Where, ti)
		if err != nil {
			return nil, err
		}
		colIdx := make([]int, len(s.Set))
		for i, a := range s.Set {
			colIdx[i] = t.def.ColIndex(a.Col)
		}
		// Set-oriented semantics: evaluate every assignment against the
		// pre-update state before applying any change.
		type plan struct {
			tp   *tuple
			next []value.Value
		}
		var plans []plan
		for _, tp := range matched {
			next := make([]value.Value, len(tp.row))
			copy(next, tp.row)
			for i, a := range s.Set {
				var v value.Value
				if a.From != "" {
					v = tp.row[t.def.ColIndex(a.From)]
					if a.ArithOp != "" {
						op := value.OpAdd
						if a.ArithOp == "-" {
							op = value.OpSub
						}
						av, err := value.Arith(op, v, a.Lit.Value())
						if err != nil {
							return nil, err
						}
						v = av
					}
				} else {
					v = a.Lit.Value()
				}
				cv, err := coerce(v, t.def.Cols[colIdx[i]].ValueKind())
				if err != nil {
					return nil, fmt.Errorf("oracle: column %s.%s: %v", s.Table, a.Col, err)
				}
				next[colIdx[i]] = cv
			}
			plans = append(plans, plan{tp: tp, next: next})
		}
		cols := append([]int(nil), colIdx...)
		sort.Ints(cols)
		for _, p := range plans {
			old := p.tp.row
			p.tp.row = p.next
			res.updated = append(res.updated, updTuple{handle: p.tp.handle, old: old, cols: cols})
		}
	default:
		return nil, fmt.Errorf("oracle: unexpected statement kind %q", s.Kind)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Transactions and the Figure 1 loop
// ---------------------------------------------------------------------------

// OutcomeKind classifies how a transaction ended.
type OutcomeKind int

// Transaction outcomes.
const (
	Committed OutcomeKind = iota
	RolledBack
	Errored
)

// Outcome is the observable result of one transaction.
type Outcome struct {
	Kind    OutcomeKind
	Rule    string   // the rollback rule, for RolledBack
	Runaway bool     // the footnote 7 guard tripped, for Errored
	Err     string   // oracle-side diagnostic, not compared against the engine
	Firings []string // rule names in action-execution order (a rollback is not a firing)
}

func (o Outcome) String() string {
	switch o.Kind {
	case Committed:
		return "committed"
	case RolledBack:
		return "rolled-back(" + o.Rule + ")"
	default:
		if o.Runaway {
			return "error(runaway)"
		}
		return "error: " + o.Err
	}
}

// rollback restores every table to the rows, in the order, it held at
// transaction start. Handles consumed by the transaction are not reused —
// the counter stays where it is.
func (db *DB) rollback() {
	for name, rows := range db.saved {
		t := db.tables[name]
		t.rows = t.rows[:0]
		clear(t.pos)
		for _, tp := range rows {
			t.insertTuple(&tuple{handle: tp.handle, row: tp.row})
		}
	}
}

// RunTxn executes one operation block as a transaction: external segments
// split at PROCESS RULES triggering points, rule processing after each
// segment, commit or rollback at the end (Figure 1).
func (db *DB) RunTxn(stmts []gen.Stmt) Outcome {
	// Updates assign tuple.row in place, so save the tuples by value.
	for name, t := range db.tables {
		rows := db.saved[name][:0]
		for _, tp := range t.rows {
			rows = append(rows, *tp)
		}
		db.saved[name] = rows
	}
	clear := func() {
		for _, r := range db.rules {
			r.transInfo = nil
		}
	}
	fail := func(runaway bool, err error) Outcome {
		db.rollback()
		clear()
		return Outcome{Kind: Errored, Runaway: runaway, Err: err.Error()}
	}

	// Split at triggering points (Section 5.3); a trailing segment always
	// exists, so rules run before commit even with no trailing operations.
	var segments [][]gen.Stmt
	var cur []gen.Stmt
	for i := range stmts {
		if stmts[i].Kind == "process" {
			segments = append(segments, cur)
			cur = nil
			continue
		}
		cur = append(cur, stmts[i])
	}
	segments = append(segments, cur)

	first := true
	transitions := 0
	var firings []string
	for _, seg := range segments {
		blockEff := newEff()
		for i := range seg {
			res, err := db.execStmt(&seg[i], nil)
			if err != nil {
				return fail(false, err)
			}
			blockEff.addOp(res)
		}
		if first {
			// init-trans-info: every rule starts from the composite effect
			// of the first externally-generated transition.
			for _, r := range db.rules {
				r.transInfo = blockEff.clone()
			}
			first = false
		} else {
			db.applyToAll(nil, blockEff)
		}
		done, runaway, err := db.processRules(&transitions, &firings)
		if err != nil {
			return fail(runaway, err)
		}
		if done.Kind == RolledBack {
			clear()
			done.Firings = firings
			return done
		}
	}
	clear()
	return Outcome{Kind: Committed, Firings: firings}
}

// processRules is the Figure 1 loop: select a triggered rule maximal in
// the priority order, consider its condition, execute its action, compose
// the resulting transition into every rule's trans-info; repeat until no
// rule is eligible. Rules whose condition was found false are reconsidered
// only after a new transition (Section 4.2).
func (db *DB) processRules(transitions *int, firings *[]string) (Outcome, bool, error) {
	consideredFalse := map[string]bool{}
	for {
		r := db.selectRule(consideredFalse)
		if r == nil {
			return Outcome{Kind: Committed}, false, nil
		}
		condHeld, err := db.evalCond(r.def.Cond, r.transInfo)
		if err != nil {
			return Outcome{}, false, fmt.Errorf("rule %q condition: %w", r.def.Name, err)
		}
		if r.def.Scope == "considered" && !condHeld {
			// Footnote 8: the evaluation window restarts at every
			// consideration.
			r.transInfo = newEff()
		}
		if !condHeld {
			consideredFalse[r.def.Name] = true
			continue
		}
		if r.def.Rollback {
			db.rollback()
			return Outcome{Kind: RolledBack, Rule: r.def.Name}, false, nil
		}
		*transitions++
		if *transitions > db.w.Cap {
			return Outcome{}, true, fmt.Errorf("runaway rules (rule %q, limit %d)", r.def.Name, db.w.Cap)
		}
		actEff := newEff()
		for i := range r.def.Action {
			res, err := db.execStmt(&r.def.Action[i], r.transInfo)
			if err != nil {
				return Outcome{}, false, fmt.Errorf("rule %q action: %w", r.def.Name, err)
			}
			actEff.addOp(res)
		}
		*firings = append(*firings, r.def.Name)
		// Figure 1: the executing rule gets fresh transition information
		// (init-trans-info); every other rule composes (modify-trans-info).
		r.transInfo = actEff.clone()
		db.applyToAll(r, actEff)
		consideredFalse = map[string]bool{}
	}
}

// applyToAll folds a new transition into every rule's trans-info except
// the rule that generated it. The since-triggered scope restarts a rule's
// window at any transition that by itself satisfies its predicate.
func (db *DB) applyToAll(exclude *orule, e *eff) {
	for _, r := range db.rules {
		if r == exclude {
			continue
		}
		if r.transInfo == nil {
			r.transInfo = e.clone()
			continue
		}
		if r.def.Scope == "triggered" && db.satisfies(e, r.def.Preds) {
			r.transInfo = e.clone()
			continue
		}
		r.transInfo.apply(e)
	}
}

// selectRule returns a triggered, not-yet-rejected rule that is maximal in
// the priority partial order, chosen by the injected tie-break.
func (db *DB) selectRule(consideredFalse map[string]bool) *orule {
	var triggered []*orule
	for _, r := range db.rules {
		if consideredFalse[r.def.Name] || r.transInfo == nil {
			continue
		}
		if db.satisfies(r.transInfo, r.def.Preds) {
			triggered = append(triggered, r)
		}
	}
	if len(triggered) == 0 {
		return nil
	}
	var maximal []*orule
	for _, r := range triggered {
		dominated := false
		for _, q := range triggered {
			if q != r && db.isHigher(q.def.Name, r.def.Name) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, r)
		}
	}
	names := make([]string, len(maximal))
	for i, r := range maximal {
		names[i] = r.def.Name
	}
	sort.Strings(names)
	picked := db.choose(names)
	for _, r := range maximal {
		if r.def.Name == picked {
			return r
		}
	}
	for _, r := range maximal {
		if r.def.Name == names[0] {
			return r
		}
	}
	return maximal[0]
}

// ---------------------------------------------------------------------------
// Canonical state
// ---------------------------------------------------------------------------

// TupleState is one tuple in canonical form.
type TupleState struct {
	Handle uint64
	Row    []value.Value
}

// State maps table name → tuples in ascending handle order.
type State map[string][]TupleState

// State captures the oracle's current database state.
func (db *DB) State() State {
	out := State{}
	for name, t := range db.tables {
		rows := make([]TupleState, 0, len(t.rows))
		for _, tp := range t.rows {
			rows = append(rows, TupleState{Handle: tp.handle, Row: tp.row})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Handle < rows[j].Handle })
		out[name] = rows
	}
	return out
}
