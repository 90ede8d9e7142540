package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/value"
)

// aggregateNames is the set of aggregate functions.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// evalExpr evaluates an expression in a scope. Predicate-valued expressions
// yield KindBool or NULL (for Unknown).
func (e *Env) evalExpr(sc *scope, expr sqlast.Expr) (value.Value, error) {
	switch x := expr.(type) {
	case *sqlast.Literal:
		return x.Val, nil

	case *sqlast.ColumnRef:
		b, idx, err := sc.lookup(x.Qualifier, x.Column)
		if err != nil {
			return value.Null, err
		}
		return b.row[idx], nil

	case *sqlast.Unary:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		if x.Op == sqlast.OpNeg {
			return value.Neg(v)
		}
		t, err := truth(v)
		if err != nil {
			return value.Null, err
		}
		return triboolValue(t.Not()), nil

	case *sqlast.Binary:
		return e.evalBinary(sc, x)

	case *sqlast.IsNull:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil

	case *sqlast.Between:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		lo, err := e.evalExpr(sc, x.Lo)
		if err != nil {
			return value.Null, err
		}
		hi, err := e.evalExpr(sc, x.Hi)
		if err != nil {
			return value.Null, err
		}
		ge, err := compareTri(v, lo, sqlast.OpGe)
		if err != nil {
			return value.Null, err
		}
		le, err := compareTri(v, hi, sqlast.OpLe)
		if err != nil {
			return value.Null, err
		}
		t := ge.And(le)
		if x.Negate {
			t = t.Not()
		}
		return triboolValue(t), nil

	case *sqlast.Like:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		pat, err := e.evalExpr(sc, x.Pattern)
		if err != nil {
			return value.Null, err
		}
		t := value.Like(v, pat)
		if x.Negate {
			t = t.Not()
		}
		return triboolValue(t), nil

	case *sqlast.InList:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		t := value.False
		if v.IsNull() {
			t = value.Unknown
		} else {
			sawNull := false
			for _, el := range x.List {
				ev, err := e.evalExpr(sc, el)
				if err != nil {
					return value.Null, err
				}
				if ev.IsNull() {
					sawNull = true
					continue
				}
				if cmp, ok := value.Compare(v, ev); ok && cmp == 0 {
					t = value.True
					break
				}
			}
			if t != value.True && sawNull {
				t = value.Unknown
			}
		}
		if x.Negate {
			t = t.Not()
		}
		return triboolValue(t), nil

	case *sqlast.InSelect:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		res, err := e.subquery(x.Sub, sc)
		if err != nil {
			return value.Null, err
		}
		if len(res.Columns) != 1 {
			return value.Null, fmt.Errorf("exec: IN subquery must return one column, got %d", len(res.Columns))
		}
		t := value.False
		if v.IsNull() {
			if len(res.Rows) > 0 {
				t = value.Unknown
			}
		} else {
			sawNull := false
			for _, row := range res.Rows {
				if row[0].IsNull() {
					sawNull = true
					continue
				}
				if cmp, ok := value.Compare(v, row[0]); ok && cmp == 0 {
					t = value.True
					break
				}
			}
			if t != value.True && sawNull {
				t = value.Unknown
			}
		}
		if x.Negate {
			t = t.Not()
		}
		return triboolValue(t), nil

	case *sqlast.Exists:
		res, err := e.subquery(x.Sub, sc)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool((len(res.Rows) > 0) != x.Negate), nil

	case *sqlast.ScalarSub:
		res, err := e.subquery(x.Sub, sc)
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

	case *sqlast.SubCompare:
		v, err := e.evalExpr(sc, x.X)
		if err != nil {
			return value.Null, err
		}
		res, err := e.subquery(x.Sub, sc)
		if err != nil {
			return value.Null, err
		}
		if len(res.Columns) != 1 {
			return value.Null, fmt.Errorf("exec: quantified subquery must return one column, got %d", len(res.Columns))
		}
		var t value.Tribool
		if x.Quant == sqlast.QuantAny {
			t = value.False
			for _, row := range res.Rows {
				c, err := compareTri(v, row[0], x.Op)
				if err != nil {
					return value.Null, err
				}
				t = t.Or(c)
				if t == value.True {
					break
				}
			}
		} else { // ALL
			t = value.True
			for _, row := range res.Rows {
				c, err := compareTri(v, row[0], x.Op)
				if err != nil {
					return value.Null, err
				}
				t = t.And(c)
				if t == value.False {
					break
				}
			}
		}
		return triboolValue(t), nil

	case *sqlast.FuncCall:
		name := strings.ToLower(x.Name)
		if aggregateNames[name] {
			return e.evalAggregate(sc, name, x)
		}
		return e.evalScalarFunc(sc, name, x)

	case *sqlast.Case:
		return e.evalCase(sc, x)

	default:
		return value.Null, fmt.Errorf("exec: unsupported expression %T", expr)
	}
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

func (e *Env) evalBinary(sc *scope, x *sqlast.Binary) (value.Value, error) {
	switch x.Op {
	case sqlast.OpAnd, sqlast.OpOr:
		lv, err := e.evalExpr(sc, x.L)
		if err != nil {
			return value.Null, err
		}
		lt, err := truth(lv)
		if err != nil {
			return value.Null, err
		}
		// Short-circuit when the left side is decisive.
		if x.Op == sqlast.OpAnd && lt == value.False {
			return value.NewBool(false), nil
		}
		if x.Op == sqlast.OpOr && lt == value.True {
			return value.NewBool(true), nil
		}
		rv, err := e.evalExpr(sc, x.R)
		if err != nil {
			return value.Null, err
		}
		rt, err := truth(rv)
		if err != nil {
			return value.Null, err
		}
		if x.Op == sqlast.OpAnd {
			return triboolValue(lt.And(rt)), nil
		}
		return triboolValue(lt.Or(rt)), nil

	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		lv, err := e.evalExpr(sc, x.L)
		if err != nil {
			return value.Null, err
		}
		rv, err := e.evalExpr(sc, x.R)
		if err != nil {
			return value.Null, err
		}
		t, err := compareTri(lv, rv, x.Op)
		if err != nil {
			return value.Null, err
		}
		return triboolValue(t), nil

	default:
		lv, err := e.evalExpr(sc, x.L)
		if err != nil {
			return value.Null, err
		}
		rv, err := e.evalExpr(sc, x.R)
		if err != nil {
			return value.Null, err
		}
		return value.Arith(arithOps[x.Op], lv, rv)
	}
}

// evalAggregate computes an aggregate over the scope's group rows.
func (e *Env) evalAggregate(sc *scope, name string, x *sqlast.FuncCall) (value.Value, error) {
	// Find the nearest enclosing scope with a group context.
	gsc := sc
	for gsc != nil && gsc.groupRows == nil {
		gsc = gsc.parent
	}
	if gsc == nil {
		return value.Null, fmt.Errorf("exec: aggregate %s used outside an aggregate query", strings.ToUpper(name))
	}
	g := gsc.groupRows
	if x.Star {
		if name != "count" {
			return value.Null, fmt.Errorf("exec: %s(*) is not valid", strings.ToUpper(name))
		}
		return value.NewInt(int64(g.n)), nil
	}
	if len(x.Args) != 1 {
		return value.Null, fmt.Errorf("exec: aggregate %s takes one argument", strings.ToUpper(name))
	}

	// Evaluate the argument once per member, with this scope's bindings
	// re-bound to the member and restored afterwards, folding each
	// non-NULL value as it comes. The group context is cleared during
	// argument evaluation so nested aggregates are rejected. An evaluation
	// error outranks a fold error: every argument is evaluated first.
	saved := make([]TransRow, len(gsc.vars))
	for i, b := range gsc.vars {
		saved[i] = TransRow{Handle: b.handle, Values: b.row}
	}
	f := aggFold{name: name, allInt: true}
	var seen valueSet
	if x.Distinct {
		seen = valueSet{}
	}
	gsc.groupRows = nil
	var evalErr error
	for j := 0; j < g.n; j++ {
		g.bind(gsc.vars, j)
		v, err := e.evalExpr(sc, x.Args[0])
		if err != nil {
			evalErr = err
			break
		}
		if !v.IsNull() && (seen == nil || seen.add(v)) {
			f.add(v)
		}
	}
	for i, b := range gsc.vars {
		b.row, b.handle = saved[i].Values, saved[i].Handle
	}
	gsc.groupRows = g
	if evalErr != nil {
		return value.Null, evalErr
	}
	return f.result()
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

// evalScalarFunc evaluates the built-in scalar functions.
func (e *Env) evalScalarFunc(sc *scope, name string, x *sqlast.FuncCall) (value.Value, error) {
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := e.evalExpr(sc, a)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
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

// evalCase evaluates a CASE expression. A simple CASE (with operand)
// matches arms by equality (NULL operands match nothing); a searched CASE
// takes the first arm whose condition is True.
func (e *Env) evalCase(sc *scope, x *sqlast.Case) (value.Value, error) {
	var operand value.Value
	if x.Operand != nil {
		v, err := e.evalExpr(sc, x.Operand)
		if err != nil {
			return value.Null, err
		}
		operand = v
	}
	for _, w := range x.Whens {
		cv, err := e.evalExpr(sc, w.Cond)
		if err != nil {
			return value.Null, err
		}
		var hit bool
		if x.Operand != nil {
			t, err := compareTri(operand, cv, sqlast.OpEq)
			if err != nil {
				return value.Null, err
			}
			hit = t.IsTrue()
		} else {
			t, err := truth(cv)
			if err != nil {
				return value.Null, err
			}
			hit = t.IsTrue()
		}
		if hit {
			return e.evalExpr(sc, w.Result)
		}
	}
	if x.Else != nil {
		return e.evalExpr(sc, x.Else)
	}
	return value.Null, nil
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
