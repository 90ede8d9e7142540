package exec

// The evaluator: the binder compiles every expression into a closure over
// frames. A value-shaped expression compiles to a valFn and a predicate to
// a predFn returning its truth value directly, so WHERE, HAVING and join
// residuals never box a Tribool into a value and back. Column references
// and literals stay open in the compiled form (cx) until a parent needs a
// closure, so a comparison of a column with a literal or with another
// column of the same block reads the row itself.

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// valFn computes a value in a frame.
type valFn func(*frame) (value.Value, error)

// predFn computes a truth value in a frame.
type predFn func(*frame) (value.Tribool, error)

// cx is one compiled expression: a closure computing its value (val) or
// its truth value (test), and what it reads (deps). A column reference
// (leafCol) or literal (leafLit) has neither closure until value or truth
// is asked for.
type cx struct {
	val  valFn
	test predFn
	deps deps
	leaf leafKind
	ref  colRef
	lit  value.Value
}

type leafKind uint8

const (
	leafNone leafKind = iota
	leafCol
	leafLit
)

// read returns the referenced column of the frame's current rows.
func (r colRef) read(fr *frame) value.Value {
	for d := r.depth; d > 0; d-- {
		fr = fr.parent
	}
	return fr.rows[r.slot][r.ord]
}

// load returns a closure reading the referenced column.
func (r colRef) load() valFn {
	slot, ord := r.slot, r.ord
	if r.depth == 0 {
		return func(fr *frame) (value.Value, error) { return fr.rows[slot][ord], nil }
	}
	return func(fr *frame) (value.Value, error) { return r.read(fr), nil }
}

// eval computes c's value without building a closure for a leaf.
func (c *cx) eval(fr *frame) (value.Value, error) {
	switch c.leaf {
	case leafCol:
		return c.ref.read(fr), nil
	case leafLit:
		return c.lit, nil
	}
	return c.value()(fr)
}

// operand returns c ready for eval: a leaf stays open, and anything else
// gets its value closure once.
func (c cx) operand() cx {
	if c.leaf == leafNone {
		c.val = c.value()
	}
	return c
}

// value returns c as a valFn. A predicate's Unknown is NULL.
func (c cx) value() valFn {
	switch {
	case c.val != nil:
		return c.val
	case c.leaf == leafCol:
		return c.ref.load()
	case c.leaf == leafLit:
		v := c.lit
		return func(*frame) (value.Value, error) { return v, nil }
	}
	test := c.test
	return func(fr *frame) (value.Value, error) {
		t, err := test(fr)
		if err != nil {
			return value.Null, err
		}
		return triboolValue(t), nil
	}
}

// truth returns c as a predFn: NULL is Unknown, and a value of any kind
// but boolean is an error.
func (c cx) truth() predFn {
	if c.test != nil {
		return c.test
	}
	val := c.value()
	return func(fr *frame) (value.Tribool, error) {
		v, err := val(fr)
		if err != nil {
			return value.Unknown, err
		}
		return truth(v)
	}
}

// errFn returns a valFn that fails with err whenever it is evaluated.
func errFn(err error) valFn {
	return func(*frame) (value.Value, error) { return value.Null, err }
}

// conjoin returns the AND of the conjuncts' tests, evaluated left to right
// and stopping at the first False; nil when there are none.
func conjoin(conj []conjunct) predFn {
	switch len(conj) {
	case 0:
		return nil
	case 1:
		return conj[0].test
	}
	return func(fr *frame) (value.Tribool, error) {
		t := value.True
		for i := range conj {
			c, err := conj[i].test(fr)
			if err != nil || c == value.False {
				return c, err
			}
			if c == value.Unknown {
				t = value.Unknown
			}
		}
		return t, nil
	}
}

// aggregateNames is the set of aggregate functions.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// expr compiles x in scope sc.
func (b *binder) expr(sc *scope, x sqlast.Expr) cx {
	switch x := x.(type) {
	case *sqlast.Literal:
		return cx{leaf: leafLit, lit: x.Val}

	case *sqlast.ColumnRef:
		ref, d, err := sc.resolve(x.Qualifier, x.Column)
		if err != nil {
			return cx{val: errFn(err), deps: d}
		}
		return cx{leaf: leafCol, ref: ref, deps: d}

	case *sqlast.Unary:
		c := b.expr(sc, x.X)
		if x.Op == sqlast.OpNeg {
			val := c.value()
			return cx{deps: c.deps, val: func(fr *frame) (value.Value, error) {
				v, err := val(fr)
				if err != nil {
					return value.Null, err
				}
				return value.Neg(v)
			}}
		}
		test := c.truth()
		return cx{deps: c.deps, test: func(fr *frame) (value.Tribool, error) {
			t, err := test(fr)
			return t.Not(), err
		}}

	case *sqlast.Binary:
		l, r := b.expr(sc, x.L), b.expr(sc, x.R)
		switch x.Op {
		case sqlast.OpAnd, sqlast.OpOr:
			return logic(x.Op, l, r)
		case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
			return compare(x.Op, l, r)
		}
		op, lv, rv := arithOps[x.Op], l.value(), r.value()
		return cx{deps: l.deps.or(r.deps), val: func(fr *frame) (value.Value, error) {
			a, err := lv(fr)
			if err != nil {
				return value.Null, err
			}
			c, err := rv(fr)
			if err != nil {
				return value.Null, err
			}
			return value.Arith(op, a, c)
		}}

	case *sqlast.IsNull:
		c := b.expr(sc, x.X)
		val, negate := c.value(), x.Negate
		return cx{deps: c.deps, test: func(fr *frame) (value.Tribool, error) {
			v, err := val(fr)
			return value.FromBool(v.IsNull() != negate), err
		}}

	case *sqlast.Between:
		c, lo, hi := b.expr(sc, x.X), b.expr(sc, x.Lo), b.expr(sc, x.Hi)
		val, lov, hiv, negate := c.value(), lo.value(), hi.value(), x.Negate
		return cx{deps: c.deps.or(lo.deps).or(hi.deps), test: func(fr *frame) (value.Tribool, error) {
			v, err := val(fr)
			if err != nil {
				return value.Unknown, err
			}
			l, err := lov(fr)
			if err != nil {
				return value.Unknown, err
			}
			h, err := hiv(fr)
			if err != nil {
				return value.Unknown, err
			}
			ge, err := compareTri(v, l, sqlast.OpGe)
			if err != nil {
				return value.Unknown, err
			}
			le, err := compareTri(v, h, sqlast.OpLe)
			if err != nil {
				return value.Unknown, err
			}
			t := ge.And(le)
			if negate {
				t = t.Not()
			}
			return t, nil
		}}

	case *sqlast.Like:
		c, p := b.expr(sc, x.X), b.expr(sc, x.Pattern)
		val, pat, negate := c.value(), p.value(), x.Negate
		return cx{deps: c.deps.or(p.deps), test: func(fr *frame) (value.Tribool, error) {
			v, err := val(fr)
			if err != nil {
				return value.Unknown, err
			}
			pv, err := pat(fr)
			if err != nil {
				return value.Unknown, err
			}
			t := value.Like(v, pv)
			if negate {
				t = t.Not()
			}
			return t, nil
		}}

	case *sqlast.InList:
		list := make([]cx, len(x.List))
		for i, item := range x.List {
			list[i] = b.expr(sc, item)
		}
		return inList(b.expr(sc, x.X), list, x.Negate)

	case *sqlast.InSelect:
		return inSelect(b.expr(sc, x.X), b.bindSelect(sc, x.Sub), x.Negate)

	case *sqlast.Exists:
		sub, negate := b.bindSelect(sc, x.Sub), x.Negate
		return cx{deps: sub.deps, test: func(fr *frame) (value.Tribool, error) {
			res, err := fr.env.subquery(sub, fr)
			if err != nil {
				return value.Unknown, err
			}
			return value.FromBool((len(res.Rows) > 0) != negate), nil
		}}

	case *sqlast.ScalarSub:
		sub := b.bindSelect(sc, x.Sub)
		return cx{deps: sub.deps, val: func(fr *frame) (value.Value, error) {
			res, err := fr.env.subquery(sub, fr)
			if err != nil {
				return value.Null, err
			}
			if len(res.Columns) != 1 {
				return value.Null, fmt.Errorf("exec: scalar subquery must return one column, got %d", len(res.Columns))
			}
			switch len(res.Rows) {
			case 0:
				return value.Null, nil
			case 1:
				return res.Rows[0][0], nil
			default:
				return value.Null, fmt.Errorf("exec: scalar subquery returned %d rows", len(res.Rows))
			}
		}}

	case *sqlast.SubCompare:
		return b.subCompare(sc, x)

	case *sqlast.FuncCall:
		name := strings.ToLower(x.Name)
		if aggregateNames[name] {
			return b.aggregate(sc, name, x)
		}
		return b.scalarCall(sc, name, x)

	case *sqlast.Case:
		return b.caseExpr(sc, x)

	default:
		return cx{val: errFn(fmt.Errorf("exec: unsupported expression %T", x))}
	}
}

// logic compiles AND and OR, which evaluate their right side only when
// the left one does not decide.
func logic(op sqlast.BinOp, l, r cx) cx {
	lt, rt, and := l.truth(), r.truth(), op == sqlast.OpAnd
	return cx{deps: l.deps.or(r.deps), test: func(fr *frame) (value.Tribool, error) {
		a, err := lt(fr)
		if err != nil {
			return value.Unknown, err
		}
		if and && a == value.False || !and && a == value.True {
			return a, nil
		}
		c, err := rt(fr)
		if err != nil {
			return value.Unknown, err
		}
		if and {
			return a.And(c), nil
		}
		return a.Or(c), nil
	}}
}

// compare compiles a comparison. Its commonest shapes in a WHERE clause —
// a column of the block against a literal or against another column of
// the block — read the row directly.
func compare(op sqlast.BinOp, l, r cx) cx {
	d := l.deps.or(r.deps)
	if l.leaf == leafCol && l.ref.depth == 0 {
		ls, lo := l.ref.slot, l.ref.ord
		switch {
		case r.leaf == leafLit:
			lit := r.lit
			return cx{deps: d, test: func(fr *frame) (value.Tribool, error) {
				return compareTri(fr.rows[ls][lo], lit, op)
			}}
		case r.leaf == leafCol && r.ref.depth == 0:
			rs, ro := r.ref.slot, r.ref.ord
			return cx{deps: d, test: func(fr *frame) (value.Tribool, error) {
				return compareTri(fr.rows[ls][lo], fr.rows[rs][ro], op)
			}}
		}
	}
	lv, rv := l.value(), r.value()
	return cx{deps: d, test: func(fr *frame) (value.Tribool, error) {
		a, err := lv(fr)
		if err != nil {
			return value.Unknown, err
		}
		c, err := rv(fr)
		if err != nil {
			return value.Unknown, err
		}
		return compareTri(a, c, op)
	}}
}

// inList compiles `x [NOT] IN (list)`: the list is evaluated item by item
// until one equals x.
func inList(x cx, list []cx, negate bool) cx {
	val, items, d := x.value(), make([]valFn, len(list)), x.deps
	for i, c := range list {
		items[i], d = c.value(), d.or(c.deps)
	}
	return cx{deps: d, test: func(fr *frame) (value.Tribool, error) {
		v, err := val(fr)
		if err != nil {
			return value.Unknown, err
		}
		t := value.False
		if v.IsNull() {
			t = value.Unknown
		} else {
			sawNull := false
			for _, item := range items {
				w, err := item(fr)
				if err != nil {
					return value.Unknown, err
				}
				if w.IsNull() {
					sawNull = true
					continue
				}
				if cmp, ok := value.Compare(v, w); ok && cmp == 0 {
					t = value.True
					break
				}
			}
			if t != value.True && sawNull {
				t = value.Unknown
			}
		}
		if negate {
			return t.Not(), nil
		}
		return t, nil
	}}
}

// inSelect compiles `x [NOT] IN (subquery)`. A memoized subquery's rows
// are hashed once per statement (inSet) when there are enough of them to
// repay it; otherwise membership is the linear definition (inRows).
func inSelect(x cx, sub *boundSelect, negate bool) cx {
	val := x.value()
	return cx{deps: x.deps.or(sub.deps), test: func(fr *frame) (value.Tribool, error) {
		v, err := val(fr)
		if err != nil {
			return value.Unknown, err
		}
		e := fr.env
		m, memo := e.memoized(sub, fr)
		if !memo {
			m.res, m.err = e.evalSelect(sub, fr)
		}
		if m.err != nil {
			return value.Unknown, m.err
		}
		if len(m.res.Columns) != 1 {
			return value.Unknown, fmt.Errorf("exec: IN subquery must return one column, got %d", len(m.res.Columns))
		}
		var t value.Tribool
		switch {
		case !memo || len(m.res.Rows) < inSetMin:
			t = inRows(v, m.res.Rows)
		case m.set != nil:
			t = m.set.contains(v)
		default:
			m.set = newInSet(m.res.Rows)
			e.memo[sub] = m
			t = m.set.contains(v)
		}
		if negate {
			return t.Not(), nil
		}
		return t, nil
	}}
}

// inRows is IN-subquery membership by definition: True when some row's
// value compares equal to v; otherwise Unknown when v or some row is NULL
// (v only over a non-empty list), and False. Values of incomparable kinds
// never match.
func inRows(v value.Value, rows []storage.Row) value.Tribool {
	if v.IsNull() {
		if len(rows) > 0 {
			return value.Unknown
		}
		return value.False
	}
	sawNull := false
	for _, row := range rows {
		if row[0].IsNull() {
			sawNull = true
			continue
		}
		if cmp, ok := value.Compare(v, row[0]); ok && cmp == 0 {
			return value.True
		}
	}
	if sawNull {
		return value.Unknown
	}
	return value.False
}

// inSetMin is the fewest rows a memoized IN subquery is hashed at. Below
// it the linear test compares about as many values as a hash probe costs
// and allocates nothing.
const inSetMin = 8

// inSet is an IN subquery's rows hashed for membership: an open-addressed
// table of row numbers keyed by value.KeyNumeric, in which every value
// that compares equal to another shares its key, so equal values share a
// probe sequence. A probe compares v with each value along its sequence
// until an empty slot; contains therefore answers exactly as inRows does.
type inSet struct {
	rows  []storage.Row
	slots []int32 // row number + 1; 0 is empty
	null  bool    // some row is NULL
}

func newInSet(rows []storage.Row) *inSet {
	n := 1
	for n < 2*len(rows) {
		n <<= 1
	}
	s := &inSet{rows: rows, slots: make([]int32, n)}
	for i, row := range rows {
		k, ok := value.KeyNumeric(row[0])
		if !ok {
			s.null = true
			continue
		}
		j := k.Hash() & uint64(n-1)
		for s.slots[j] != 0 {
			j = (j + 1) & uint64(n-1)
		}
		s.slots[j] = int32(i + 1)
	}
	return s
}

// contains reports v's membership, as inRows(v, s.rows) would.
func (s *inSet) contains(v value.Value) value.Tribool {
	k, ok := value.KeyNumeric(v)
	if !ok {
		return inRows(v, s.rows[:min(len(s.rows), 1)])
	}
	mask := uint64(len(s.slots) - 1)
	for j := k.Hash() & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if cmp, ok := value.Compare(v, s.rows[s.slots[j]-1][0]); ok && cmp == 0 {
			return value.True
		}
	}
	if s.null {
		return value.Unknown
	}
	return value.False
}

// subCompare compiles a quantified comparison `x op ANY|ALL (subquery)`.
func (b *binder) subCompare(sc *scope, x *sqlast.SubCompare) cx {
	c, sub := b.expr(sc, x.X), b.bindSelect(sc, x.Sub)
	val, op, isAny := c.value(), x.Op, x.Quant == sqlast.QuantAny
	return cx{deps: c.deps.or(sub.deps), test: func(fr *frame) (value.Tribool, error) {
		v, err := val(fr)
		if err != nil {
			return value.Unknown, err
		}
		res, err := fr.env.subquery(sub, fr)
		if err != nil {
			return value.Unknown, err
		}
		if len(res.Columns) != 1 {
			return value.Unknown, fmt.Errorf("exec: quantified subquery must return one column, got %d", len(res.Columns))
		}
		t := value.True
		if isAny {
			t = value.False
		}
		for _, row := range res.Rows {
			c, err := compareTri(v, row[0], op)
			if err != nil {
				return value.Unknown, err
			}
			if isAny {
				if t = t.Or(c); t == value.True {
					break
				}
			} else if t = t.And(c); t == value.False {
				break
			}
		}
		return t, nil
	}}
}

// triboolValue maps a Tribool to a SQL value: Unknown becomes NULL.
func triboolValue(t value.Tribool) value.Value {
	switch t {
	case value.True:
		return value.NewBool(true)
	case value.False:
		return value.NewBool(false)
	default:
		return value.Null
	}
}

// compareTri applies a comparison operator with three-valued semantics.
func compareTri(a, b value.Value, op sqlast.BinOp) (value.Tribool, error) {
	if a.IsNull() || b.IsNull() {
		return value.Unknown, nil
	}
	cmp, ok := value.Compare(a, b)
	if !ok {
		return value.Unknown, fmt.Errorf("exec: cannot compare %s with %s", a.Kind(), b.Kind())
	}
	switch op {
	case sqlast.OpEq:
		return value.FromBool(cmp == 0), nil
	case sqlast.OpNe:
		return value.FromBool(cmp != 0), nil
	case sqlast.OpLt:
		return value.FromBool(cmp < 0), nil
	case sqlast.OpLe:
		return value.FromBool(cmp <= 0), nil
	case sqlast.OpGt:
		return value.FromBool(cmp > 0), nil
	case sqlast.OpGe:
		return value.FromBool(cmp >= 0), nil
	default:
		return value.Unknown, fmt.Errorf("exec: %v is not a comparison", op)
	}
}

var arithOps = map[sqlast.BinOp]value.ArithOp{
	sqlast.OpAdd: value.OpAdd,
	sqlast.OpSub: value.OpSub,
	sqlast.OpMul: value.OpMul,
	sqlast.OpDiv: value.OpDiv,
	sqlast.OpMod: value.OpMod,
}

// aggregate compiles an aggregate call. It binds to the nearest enclosing
// block in its group phase — its own block's HAVING, select list or ORDER
// BY, or, from a subquery there, an outer block's — and ranges over the
// current group of that block: with the block's rows rebound to each
// member in turn, the argument is evaluated once per member and each
// non-NULL value folded as it comes. The argument is bound with that
// block out of its group phase, so an aggregate nested in it binds
// further out. An evaluation error outranks a fold error.
func (b *binder) aggregate(sc *scope, name string, x *sqlast.FuncCall) cx {
	owner, depth := sc, 0
	for owner != nil && !owner.group {
		owner, depth = owner.parent, depth+1
	}
	upper := strings.ToUpper(name)
	outside := fmt.Errorf("exec: aggregate %s used outside an aggregate query", upper)
	if owner == nil {
		return cx{val: errFn(outside), deps: deps{unbound: true}}
	}
	d := levelDeps(owner.lv)
	groupOf := func(fr *frame) (*frame, *group) {
		for i := 0; i < depth; i++ {
			fr = fr.parent
		}
		return fr, fr.group
	}
	if x.Star {
		if name != "count" {
			return cx{val: errFn(fmt.Errorf("exec: %s(*) is not valid", upper)), deps: d}
		}
		return cx{deps: d, val: func(fr *frame) (value.Value, error) {
			if _, g := groupOf(fr); g != nil {
				return value.NewInt(int64(g.n)), nil
			}
			return value.Null, outside
		}}
	}
	if len(x.Args) != 1 {
		return cx{val: errFn(fmt.Errorf("exec: aggregate %s takes one argument", upper)), deps: d}
	}
	c := b.expr(sc.without(owner), x.Args[0])
	owner.sel.members = true
	arg, distinct := c.value(), x.Distinct
	return cx{deps: d.or(c.deps), val: func(fr *frame) (value.Value, error) {
		gf, g := groupOf(fr)
		if g == nil {
			return value.Null, outside
		}
		gf.saved = append(gf.saved[:0], gf.rows...)
		f := aggFold{name: name, allInt: true}
		var seen valueSet
		if distinct {
			seen = valueSet{}
		}
		var evalErr error
		for _, m := range g.members {
			g.set.bind(gf.rows, m)
			v, err := arg(fr)
			if err != nil {
				evalErr = err
				break
			}
			if !v.IsNull() && (seen == nil || seen.add(v)) {
				f.add(v)
			}
		}
		copy(gf.rows, gf.saved)
		if evalErr != nil {
			return value.Null, evalErr
		}
		return f.result()
	}}
}

// aggFold folds an aggregate's non-NULL argument values, in member order.
// The first fold error sticks and later values are ignored.
type aggFold struct {
	name   string
	n      int64
	sumI   int64
	sumF   float64
	allInt bool
	best   value.Value
	err    error
}

func (f *aggFold) add(v value.Value) {
	if f.err != nil {
		return
	}
	f.n++
	switch f.name {
	case "sum", "avg":
		switch v.Kind() {
		case value.KindInt:
			f.sumI += v.Int()
			f.sumF += float64(v.Int())
		case value.KindFloat:
			f.allInt = false
			f.sumF += v.Float()
		default:
			f.err = fmt.Errorf("exec: %s over non-numeric value %s", strings.ToUpper(f.name), v)
		}
	case "min", "max":
		if f.n == 1 {
			f.best = v
			return
		}
		cmp, ok := value.Compare(v, f.best)
		if !ok {
			f.err = fmt.Errorf("exec: %s over incomparable values", strings.ToUpper(f.name))
			return
		}
		if (f.name == "min" && cmp < 0) || (f.name == "max" && cmp > 0) {
			f.best = v
		}
	}
}

func (f *aggFold) result() (value.Value, error) {
	if f.err != nil {
		return value.Null, f.err
	}
	switch f.name {
	case "count":
		return value.NewInt(f.n), nil
	case "sum", "avg":
		switch {
		case f.n == 0:
			return value.Null, nil
		case f.name == "avg":
			return value.NewFloat(f.sumF / float64(f.n)), nil
		case f.allInt:
			return value.NewInt(f.sumI), nil
		default:
			return value.NewFloat(f.sumF), nil
		}
	case "min", "max":
		if f.n == 0 {
			return value.Null, nil
		}
		return f.best, nil
	default:
		return value.Null, fmt.Errorf("exec: unknown aggregate %s", f.name)
	}
}

// valueSet holds the distinct values of a DISTINCT aggregate's argument:
// a value is new unless it is Equal to one already held. Equal values
// share a KeyNumeric key, so Equal runs only within one key's bucket. A
// bucket can hold values that are not Equal to each other — every NaN
// (never Equal, not even to itself) and int64s above 2^53 that share a
// float image — and they are kept exactly as a scan over every held value
// would keep them. NULL is never added.
type valueSet map[value.Key][]value.Value

// add adds v and reports whether it was new.
func (s valueSet) add(v value.Value) bool {
	k, _ := value.KeyNumeric(v)
	bucket := s[k]
	for _, w := range bucket {
		if v.Equal(w) {
			return false
		}
	}
	s[k] = append(bucket, v)
	return true
}

// scalarCall compiles a call of a built-in scalar function: its arguments
// are evaluated first, then the function applied (scalarFunc).
func (b *binder) scalarCall(sc *scope, name string, x *sqlast.FuncCall) cx {
	args := make([]valFn, len(x.Args))
	var d deps
	for i, a := range x.Args {
		c := b.expr(sc, a)
		args[i], d = c.value(), d.or(c.deps)
	}
	return cx{deps: d, val: func(fr *frame) (value.Value, error) {
		vals := make([]value.Value, len(args))
		for i, arg := range args {
			v, err := arg(fr)
			if err != nil {
				return value.Null, err
			}
			vals[i] = v
		}
		return scalarFunc(name, vals)
	}}
}

// scalarFunc applies the built-in scalar function name to args.
func scalarFunc(name string, args []value.Value) (value.Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("exec: %s takes %d argument(s), got %d", strings.ToUpper(name), n, len(args))
		}
		return nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			i := args[0].Int()
			if i < 0 {
				i = -i
			}
			return value.NewInt(i), nil
		case value.KindFloat:
			return value.NewFloat(math.Abs(args[0].Float())), nil
		default:
			return value.Null, fmt.Errorf("exec: ABS of non-numeric %s", args[0])
		}
	case "round", "floor", "ceil", "ceiling":
		if err := need(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			return args[0], nil
		case value.KindFloat:
			f := args[0].Float()
			switch name {
			case "round":
				return value.NewFloat(math.Round(f)), nil
			case "floor":
				return value.NewFloat(math.Floor(f)), nil
			default:
				return value.NewFloat(math.Ceil(f)), nil
			}
		default:
			return value.Null, fmt.Errorf("exec: %s of non-numeric %s", strings.ToUpper(name), args[0])
		}
	case "upper", "lower":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("exec: %s of non-string %s", strings.ToUpper(name), args[0])
		}
		if name == "upper" {
			return value.NewString(strings.ToUpper(args[0].Str())), nil
		}
		return value.NewString(strings.ToLower(args[0].Str())), nil
	case "length":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("exec: LENGTH of non-string %s", args[0])
		}
		return value.NewInt(int64(len(args[0].Str()))), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "nullif":
		if err := need(2); err != nil {
			return value.Null, err
		}
		if cmp, ok := value.Compare(args[0], args[1]); ok && cmp == 0 {
			return value.Null, nil
		}
		return args[0], nil
	default:
		return value.Null, fmt.Errorf("exec: unknown function %q", name)
	}
}

// caseExpr compiles a CASE expression. A simple CASE (with operand)
// matches arms by equality (NULL operands match nothing); a searched CASE
// takes the first arm whose condition is True.
func (b *binder) caseExpr(sc *scope, x *sqlast.Case) cx {
	var d deps
	compile := func(y sqlast.Expr) cx {
		c := b.expr(sc, y)
		d = d.or(c.deps)
		return c
	}
	var operand, els valFn
	if x.Operand != nil {
		operand = compile(x.Operand).value()
	}
	conds, tests, results := make([]valFn, len(x.Whens)), make([]predFn, len(x.Whens)), make([]valFn, len(x.Whens))
	for i, w := range x.Whens {
		if c := compile(w.Cond); operand != nil {
			conds[i] = c.value()
		} else {
			tests[i] = c.truth()
		}
		results[i] = compile(w.Result).value()
	}
	if x.Else != nil {
		els = compile(x.Else).value()
	}
	return cx{deps: d, val: func(fr *frame) (value.Value, error) {
		var op value.Value
		if operand != nil {
			v, err := operand(fr)
			if err != nil {
				return value.Null, err
			}
			op = v
		}
		for i := range results {
			var t value.Tribool
			var err error
			if operand != nil {
				var cv value.Value
				if cv, err = conds[i](fr); err == nil {
					t, err = compareTri(op, cv, sqlast.OpEq)
				}
			} else {
				t, err = tests[i](fr)
			}
			if err != nil {
				return value.Null, err
			}
			if t.IsTrue() {
				return results[i](fr)
			}
		}
		if els != nil {
			return els(fr)
		}
		return value.Null, nil
	}}
}

// exprHasAggregate reports whether the expression contains an aggregate
// call not nested inside a subquery (subqueries get their own contexts).
func exprHasAggregate(expr sqlast.Expr) bool {
	return exprAny(expr, func(x sqlast.Expr) bool {
		f, ok := x.(*sqlast.FuncCall)
		return ok && aggregateNames[strings.ToLower(f.Name)]
	})
}

// exprAny reports whether pred holds for x or for any expression inside
// it. It does not descend into subqueries, which are blocks of their own:
// pred sees the subquery expression and decides for it.
func exprAny(x sqlast.Expr, pred func(sqlast.Expr) bool) bool {
	if x == nil {
		return false
	}
	if pred(x) {
		return true
	}
	some := func(xs ...sqlast.Expr) bool {
		return slices.ContainsFunc(xs, func(y sqlast.Expr) bool { return exprAny(y, pred) })
	}
	switch v := x.(type) {
	case *sqlast.Unary:
		return some(v.X)
	case *sqlast.IsNull:
		return some(v.X)
	case *sqlast.InSelect:
		return some(v.X)
	case *sqlast.SubCompare:
		return some(v.X)
	case *sqlast.Binary:
		return some(v.L, v.R)
	case *sqlast.Between:
		return some(v.X, v.Lo, v.Hi)
	case *sqlast.Like:
		return some(v.X, v.Pattern)
	case *sqlast.InList:
		return some(v.X) || some(v.List...)
	case *sqlast.FuncCall:
		return some(v.Args...)
	case *sqlast.Case:
		return some(v.Operand, v.Else) || slices.ContainsFunc(v.Whens, func(w sqlast.When) bool { return some(w.Cond, w.Result) })
	}
	return false
}
