package exec

// The binder. Every statement, and every rule condition, is bound against
// a catalog before it runs: each query block's FROM entries are looked up,
// every column reference is resolved once to (scope depth, relation slot,
// column ordinal), and every expression is compiled into a closure over
// frames (eval.go). Evaluation never looks a name up.
//
// Binding reports nothing early. A reference that is unknown or ambiguous
// binds to a node that returns its error when it is evaluated, and only
// then, so a query whose WHERE names a missing column still succeeds over
// an empty table; a FROM entry naming an unknown table contributes no
// columns, and the block reports the catalog's error when it reaches that
// entry. What binding adds is knowledge: each block's deps say which
// enclosing blocks it reads, which decides the subquery memo's closed test
// and the index probe's independence test; each WHERE conjunct keeps its
// sides open for the index probes (access.go) and the hash joins
// (plan.go).

import (
	"fmt"
	"slices"

	"sopr/internal/catalog"
	"sopr/internal/sqlast"
	"sopr/internal/value"
)

// Bound is a statement, or a rule condition, bound against one catalog
// version. It holds ordinals, literals and syntax, never an Env, a store
// or row data, so one Bound serves any number of executions against
// states with that catalog; the engine binds each rule's condition and
// action statements once per rule set and catalog. The catalog pointer is
// the version: storage replaces the catalog on every DDL statement.
type Bound struct {
	cat  *catalog.Catalog
	stmt sqlast.Statement // the statement; nil for a condition
	cond sqlast.Expr      // the condition
	test predFn           // the bound condition; nil for IF TRUE
	sel  *boundSelect
	dml  *boundDML
}

// Bind binds a statement against cat. It never fails: errors surface when
// the statement runs, as they would without binding.
func Bind(cat *catalog.Catalog, st sqlast.Statement) *Bound {
	bd := &binder{cat: cat}
	switch s := st.(type) {
	case *sqlast.Select:
		return &Bound{cat: cat, stmt: st, sel: bd.bindSelect(rootScope, s)}
	case *sqlast.Insert, *sqlast.Delete, *sqlast.Update:
		// One allocation holds the statement and its binding.
		both := &struct {
			b Bound
			d boundDML
		}{b: Bound{cat: cat, stmt: st}}
		both.b.dml = &both.d
		bd.bindDML(&both.d, st)
		return &both.b
	}
	return &Bound{cat: cat, stmt: st}
}

// BindCondition binds a rule condition against cat; a nil condition is IF
// TRUE.
func BindCondition(cat *catalog.Catalog, cond sqlast.Expr) *Bound {
	b := &Bound{cat: cat, cond: cond}
	if cond != nil {
		b.test = (&binder{cat: cat}).expr(rootScope, cond).truth()
	}
	return b
}

// current returns b, or b bound anew when cat is not the catalog b was
// bound against.
func (b *Bound) current(cat *catalog.Catalog) *Bound {
	switch {
	case b.cat == cat:
		return b
	case b.stmt != nil:
		return Bind(cat, b.stmt)
	default:
		return BindCondition(cat, b.cond)
	}
}

type binder struct {
	cat *catalog.Catalog
}

// deps is what a bound expression or block reads from outside itself: the
// levels of the blocks its references bind to (level 0 is the statement's
// root, each query block one deeper than the block it sits in), whether
// some reference binds nowhere, whether some FROM entry names an unknown
// table, and whether it embeds a subquery.
type deps struct {
	levels  uint64
	unbound bool
	unknown bool
	sub     bool
}

func (d deps) or(o deps) deps {
	return deps{levels: d.levels | o.levels, unbound: d.unbound || o.unbound, unknown: d.unknown || o.unknown, sub: d.sub || o.sub}
}

// levelDeps records a reference binding to the block at level lv. Nesting
// deeper than the bitmask can say counts as an unknown table: such a block
// is never memoized and never probes an index.
func levelDeps(lv int) deps {
	if lv >= 64 {
		return deps{unknown: true}
	}
	return deps{levels: 1 << lv}
}

// refersTo reports whether something with deps d may read the block at
// level lv: a reference binds to it, or an unknown table hides what would.
func (d deps) refersTo(lv int) bool {
	return d.unknown || lv >= 64 || d.levels&(1<<lv) != 0
}

// scope is the binder's view of one query block at one point of
// evaluation: the block's FROM entries, its level, and whether aggregates
// bind to it there (its group phase). Scopes nest innermost-out, as
// blocks do; resolution searches them in that order.
type scope struct {
	parent *scope
	lv     int
	from   []boundFrom
	group  bool
	sel    *boundSelect // the aggregating block, in its group phase
}

// rootScope is the scope of expressions outside any query block.
var rootScope = &scope{}

// without returns a copy of the scope chain from sc up to owner in which
// owner is not in its group phase: an aggregate's argument is evaluated
// member by member, so an aggregate nested in it binds further out.
func (sc *scope) without(owner *scope) *scope {
	c := *sc
	if sc == owner {
		c.group = false
	} else {
		c.parent = sc.parent.without(owner)
	}
	return &c
}

// colRef is a column reference resolved to the frame depth parents
// out, the relation slot in that frame and the column ordinal.
type colRef struct {
	depth, slot, ord int
}

// resolve binds a column reference, searching the scopes innermost-out and
// stopping at the first block in which the name matches. A name matching
// two columns of that block is ambiguous.
func (sc *scope) resolve(qualifier, column string) (colRef, deps, error) {
	depth := 0
	for s := sc; s != nil; s, depth = s.parent, depth+1 {
		ref := colRef{depth: depth, slot: -1}
		for i := range s.from {
			f := &s.from[i]
			if f.schema == nil || (qualifier != "" && f.binding != qualifier) {
				continue
			}
			for j := range f.schema.Columns {
				if f.schema.Columns[j].Name != column {
					continue
				}
				if ref.slot >= 0 {
					d := levelDeps(s.lv)
					d.unbound = true
					return colRef{}, d, fmt.Errorf("exec: ambiguous column reference %q", refName(qualifier, column))
				}
				ref.slot, ref.ord = i, j
			}
		}
		if ref.slot >= 0 {
			return ref, levelDeps(s.lv), nil
		}
	}
	return colRef{}, deps{unbound: true}, fmt.Errorf("exec: unknown column %q", refName(qualifier, column))
}

// boundFrom is one FROM entry: its syntax, the name it is known by and its
// table's schema (nil when the table is unknown). err is the entry's
// static error, reported when evaluation reaches the entry; dup marks a
// binding an earlier entry already uses.
type boundFrom struct {
	tr      *sqlast.TableRef
	binding string
	schema  *catalog.Table
	err     error
	dup     bool
}

// block is the part of a query block that DELETE and UPDATE share with
// SELECT: the FROM entries and the WHERE clause, split into its top-level
// conjuncts.
type block struct {
	lv    int
	from  []boundFrom
	conj  []conjunct
	where predFn // all of conj; nil without WHERE
	equi  []equiCond
	deps  deps
}

// conjunct is one top-level AND conjunct of a WHERE clause. Conjuncts of
// the forms `l = r`, `l IN (list)` and `l IN (subquery)` keep their sides
// open for index probes and hash joins.
type conjunct struct {
	test predFn
	kind conjKind
	l, r cx           // conjEq: both sides; conjIn, conjInSelect: l
	list []cx         // conjIn
	sub  *boundSelect // conjInSelect
}

type conjKind uint8

const (
	conjOther conjKind = iota
	conjEq
	conjIn
	conjInSelect
)

// bindFrom binds a FROM list at one level below parent and returns the
// block's scope.
func (b *binder) bindFrom(blk *block, parent *scope, from []*sqlast.TableRef) *scope {
	blk.lv = parent.lv + 1
	blk.from = make([]boundFrom, len(from))
	for i, tr := range from {
		f := &blk.from[i]
		f.tr, f.binding = tr, tr.Binding()
		for j := 0; j < i; j++ {
			f.dup = f.dup || blk.from[j].binding == f.binding
		}
		schema, err := b.cat.Lookup(tr.Table)
		if err != nil {
			f.err = err
			blk.deps.unknown = true
			continue
		}
		f.schema = schema
		if tr.Trans != sqlast.TransNone && tr.Column != "" && !schema.HasColumn(tr.Column) {
			f.err = fmt.Errorf("exec: table %q has no column %q", tr.Table, tr.Column)
		}
	}
	return &scope{parent: parent, lv: blk.lv, from: blk.from}
}

// bindWhere binds where, conjunct by conjunct, in sc (the block's scope),
// and collects the block's equi-join conjuncts.
func (b *binder) bindWhere(blk *block, sc *scope, where sqlast.Expr) {
	if where == nil {
		return
	}
	var buf [4]sqlast.Expr
	xs := conjuncts(where, buf[:0])
	blk.conj = make([]conjunct, len(xs))
	for i, x := range xs {
		c := &blk.conj[i]
		switch v := x.(type) {
		case *sqlast.Binary:
			if v.Op == sqlast.OpEq {
				c.kind, c.l, c.r = conjEq, b.expr(sc, v.L), b.expr(sc, v.R)
				c.test = compare(sqlast.OpEq, c.l, c.r).test
				blk.deps = blk.deps.or(c.l.deps).or(c.r.deps)
				if eq, ok := equiOf(blk, i, c); ok {
					blk.equi = append(blk.equi, eq)
				}
			}
		case *sqlast.InList:
			if !v.Negate {
				c.kind, c.l = conjIn, b.expr(sc, v.X)
				c.list = make([]cx, len(v.List))
				for j, item := range v.List {
					c.list[j] = b.expr(sc, item)
					blk.deps = blk.deps.or(c.list[j].deps)
				}
				c.test = inList(c.l, c.list, false).test
				blk.deps = blk.deps.or(c.l.deps)
			}
		case *sqlast.InSelect:
			if !v.Negate {
				c.kind, c.l, c.sub = conjInSelect, b.expr(sc, v.X), b.bindSelect(sc, v.Sub)
				c.test = inSelect(c.l, c.sub, false).test
				blk.deps = blk.deps.or(c.l.deps).or(c.sub.deps)
			}
		}
		if c.kind == conjOther {
			e := b.expr(sc, x)
			c.test = e.truth()
			blk.deps = blk.deps.or(e.deps)
		}
	}
	blk.where = conjoin(blk.conj)
}

// conjuncts appends the top-level AND conjuncts of x to out, left to
// right. Evaluating them in that order, stopping at the first False, is
// evaluating the AND tree: AND short-circuits only on False.
func conjuncts(x sqlast.Expr, out []sqlast.Expr) []sqlast.Expr {
	if v, ok := x.(*sqlast.Binary); ok && v.Op == sqlast.OpAnd {
		return conjuncts(v.R, conjuncts(v.L, out))
	}
	return append(out, x)
}

// boundSelect is one SELECT block bound against a catalog.
type boundSelect struct {
	block
	sel     *sqlast.Select
	agg     bool     // an aggregate query (see selectAggregates)
	cols    []string // output column names
	colsErr error    // a star that expands to nothing, reported after FROM
	proj    []cx // read with eval
	groupBy []valFn
	having  predFn
	order   []orderKey
	limit   valFn // bound in the enclosing scope
	// members is set when some aggregate bound to this block folds an
	// argument over the members of its groups, which then keep every
	// member's row positions rather than only the first's.
	members bool
	// closed is set when nothing in the block binds outside it: it is
	// evaluated once per statement (Env.subquery).
	closed bool
}

// orderKey is one bound ORDER BY item: an output column (out >= 0), or an
// expression evaluated in the row's scope.
type orderKey struct {
	out int
	fn  valFn
}

// bindSelect binds sel as a block nested in parent.
func (b *binder) bindSelect(parent *scope, sel *sqlast.Select) *boundSelect {
	bs := &boundSelect{sel: sel, agg: selectAggregates(sel)}
	sc := b.bindFrom(&bs.block, parent, sel.From)
	b.bindWhere(&bs.block, sc, sel.Where)
	use := func(c cx) cx {
		bs.deps = bs.deps.or(c.deps)
		return c
	}
	// The select list, HAVING and ORDER BY of an aggregating block are its
	// group phase: aggregates in them bind to its groups.
	out := sc
	if bs.agg {
		out = &scope{parent: parent, lv: sc.lv, from: sc.from, group: true, sel: bs}
	}
	items, err := b.planColumns(sel, bs.from)
	bs.colsErr = err
	bs.cols = make([]string, len(items))
	bs.proj = make([]cx, len(items))
	for i, it := range items {
		bs.cols[i] = it.name
		if it.expr != nil {
			bs.proj[i] = use(b.expr(out, it.expr)).operand()
		} else {
			bs.proj[i] = cx{leaf: leafCol, ref: it.ref}
		}
	}
	for _, g := range sel.GroupBy {
		bs.groupBy = append(bs.groupBy, use(b.expr(sc, g)).value())
	}
	if sel.Having != nil {
		bs.having = use(b.expr(out, sel.Having)).truth()
	}
	for _, ob := range sel.OrderBy {
		bs.order = append(bs.order, b.orderKey(out, ob.Expr, bs.cols, use))
	}
	if sel.Limit != nil {
		bs.limit = use(b.expr(parent, sel.Limit)).value()
	}
	// What the block reads from outside it: references binding above its
	// level. Unknown tables and unbound references anywhere inside count.
	bs.deps.levels &= 1<<min(bs.lv, 63) - 1
	if bs.lv >= 64 {
		bs.deps.unknown = true
	}
	bs.deps.sub = true
	bs.closed = bs.deps.levels == 0 && !bs.deps.unbound && !bs.deps.unknown
	return bs
}

// orderKey binds one ORDER BY item: `ORDER BY n` reads the nth output
// column; an unqualified name that is an output column's reads that
// column (ORDER BY on select-list aliases); anything else is evaluated in
// the row's scope. An ordinal out of range errors when a row is ordered.
func (b *binder) orderKey(sc *scope, x sqlast.Expr, cols []string, use func(cx) cx) orderKey {
	if lit, ok := x.(*sqlast.Literal); ok && lit.Val.Kind() == value.KindInt {
		n := lit.Val.Int()
		if n < 1 || int(n) > len(cols) {
			return orderKey{out: -1, fn: errFn(fmt.Errorf("exec: ORDER BY position %d is out of range (1..%d)", n, len(cols)))}
		}
		return orderKey{out: int(n - 1)}
	}
	if cr, ok := x.(*sqlast.ColumnRef); ok && cr.Qualifier == "" {
		if i := slices.Index(cols, cr.Column); i >= 0 {
			return orderKey{out: i}
		}
	}
	return orderKey{out: -1, fn: use(b.expr(sc, x)).value()}
}

// outItem is one output column: its name and either an expression or,
// for a star's columns, the column it reads.
type outItem struct {
	name string
	expr sqlast.Expr
	ref  colRef
}

// planColumns expands the select list into output columns, expanding *
// and q.* over the block's FROM entries.
func (b *binder) planColumns(sel *sqlast.Select, from []boundFrom) ([]outItem, error) {
	items := make([]outItem, 0, len(sel.Items))
	star := func(slot int) {
		if f := &from[slot]; f.schema != nil {
			for j, c := range f.schema.Columns {
				items = append(items, outItem{name: c.Name, ref: colRef{slot: slot, ord: j}})
			}
		}
	}
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Qualifier == "":
			if len(from) == 0 {
				return nil, fmt.Errorf("exec: SELECT * with no FROM clause")
			}
			for i := range from {
				star(i)
			}
		case it.Star:
			i := slices.IndexFunc(from, func(f boundFrom) bool { return f.binding == it.Qualifier })
			if i < 0 {
				return nil, fmt.Errorf("exec: unknown qualifier %q in %s.*", it.Qualifier, it.Qualifier)
			}
			star(i)
		default:
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
					name = cr.Column
				} else {
					name = it.Expr.String()
				}
			}
			items = append(items, outItem{name: name, expr: it.Expr})
		}
	}
	return items, nil
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

// boundDML is one INSERT, DELETE or UPDATE bound against a catalog.
type boundDML struct {
	schema *catalog.Table
	// err is the statement's static error — an unknown table or column —
	// reported before anything is evaluated.
	err error
	// target is the table a DELETE or UPDATE matches against: one FROM
	// entry under the statement's alias (or the table's name), and WHERE.
	target block
	// UPDATE: the assigned columns (in SET order, and sorted) and values.
	setCols, sorted []int
	set             []valFn
	// INSERT: the column each value lands in (nil: each in turn), and the
	// query or the values of the VALUES rows, one after another. A
	// literal is read from the syntax tree: its slot is nil, and values is
	// nil when every value is one.
	targets []int
	values  []valFn
	query   *boundSelect
	// The storage of a DELETE or UPDATE's one FROM entry and its scope.
	ref   sqlast.TableRef
	from  [1]boundFrom
	scope scope
}

// bindDML binds an INSERT, DELETE or UPDATE. Everything but an unknown
// table is bound even when the statement has a static error, so that
// EXPLAIN, which never runs the statement, renders it as before.
func (b *binder) bindDML(d *boundDML, st sqlast.Statement) {
	switch s := st.(type) {
	case *sqlast.Insert:
		if d.schema, d.err = b.cat.Lookup(s.Table); d.err != nil {
			return
		}
		d.targets, d.err = columnTargets(d.schema, s.Table, s.Columns)
		if s.Query != nil {
			d.query = b.bindSelect(rootScope, s.Query)
			return
		}
		n := 0
		for _, row := range s.Rows {
			for _, x := range row {
				if _, lit := x.(*sqlast.Literal); !lit {
					if d.values == nil {
						d.values = make([]valFn, valueCount(s.Rows))
					}
					d.values[n] = b.expr(rootScope, x).value()
				}
				n++
			}
		}
	case *sqlast.Delete:
		if d.schema, d.err = b.cat.Lookup(s.Table); d.err == nil {
			b.bindTarget(d, s.Table, s.Alias, s.Where)
		}
	case *sqlast.Update:
		if d.schema, d.err = b.cat.Lookup(s.Table); d.err != nil {
			return
		}
		sc := b.bindTarget(d, s.Table, s.Alias, s.Where)
		d.setCols = make([]int, len(s.Set))
		for i, a := range s.Set {
			if d.setCols[i] = d.schema.ColumnIndex(a.Column); d.setCols[i] < 0 {
				d.err = fmt.Errorf("exec: table %q has no column %q", s.Table, a.Column)
				return
			}
		}
		d.sorted = d.setCols
		if !slices.IsSorted(d.setCols) {
			d.sorted = slices.Clone(d.setCols)
			slices.Sort(d.sorted)
		}
		d.set = make([]valFn, len(s.Set))
		for i, a := range s.Set {
			d.set[i] = b.expr(sc, a.Expr).value()
		}
	}
}

// valueCount returns the number of values in rows.
func valueCount(rows [][]sqlast.Expr) int {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	return n
}

// bindTarget binds a DELETE or UPDATE's table, under its alias or else
// the table's name, and its WHERE, returning the table's scope.
func (b *binder) bindTarget(d *boundDML, table, alias string, where sqlast.Expr) *scope {
	d.ref = sqlast.TableRef{Table: table, Alias: alias}
	binding := alias
	if binding == "" {
		binding = d.schema.Name
	}
	d.from[0] = boundFrom{tr: &d.ref, binding: binding, schema: d.schema}
	d.target.lv = 1
	d.target.from = d.from[:]
	d.scope = scope{parent: rootScope, lv: 1, from: d.target.from}
	b.bindWhere(&d.target, &d.scope, where)
	return &d.scope
}

// columnTargets maps an INSERT's optional column-name list to schema
// ordinals; nil, without a list, is every column in schema order.
func columnTargets(schema *catalog.Table, table string, columns []string) ([]int, error) {
	if columns == nil {
		return nil, nil
	}
	idx := make([]int, len(columns))
	for i, c := range columns {
		if idx[i] = schema.ColumnIndex(c); idx[i] < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", table, c)
		}
	}
	return idx, nil
}
