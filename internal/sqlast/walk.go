package sqlast

// ExprTableRefs calls fn for every table reference in the FROM lists of the
// subqueries nested anywhere in e, in source order.
func ExprTableRefs(e Expr, fn func(*TableRef)) {
	switch x := e.(type) {
	case *Unary:
		ExprTableRefs(x.X, fn)
	case *Binary:
		ExprTableRefs(x.L, fn)
		ExprTableRefs(x.R, fn)
	case *IsNull:
		ExprTableRefs(x.X, fn)
	case *Between:
		ExprTableRefs(x.X, fn)
		ExprTableRefs(x.Lo, fn)
		ExprTableRefs(x.Hi, fn)
	case *Like:
		ExprTableRefs(x.X, fn)
		ExprTableRefs(x.Pattern, fn)
	case *InList:
		ExprTableRefs(x.X, fn)
		for _, el := range x.List {
			ExprTableRefs(el, fn)
		}
	case *InSelect:
		ExprTableRefs(x.X, fn)
		selectTableRefs(x.Sub, fn)
	case *Exists:
		selectTableRefs(x.Sub, fn)
	case *ScalarSub:
		selectTableRefs(x.Sub, fn)
	case *SubCompare:
		ExprTableRefs(x.X, fn)
		selectTableRefs(x.Sub, fn)
	case *FuncCall:
		for _, a := range x.Args {
			ExprTableRefs(a, fn)
		}
	case *Case:
		ExprTableRefs(x.Operand, fn)
		for _, w := range x.Whens {
			ExprTableRefs(w.Cond, fn)
			ExprTableRefs(w.Result, fn)
		}
		ExprTableRefs(x.Else, fn)
	}
}

func selectTableRefs(sel *Select, fn func(*TableRef)) {
	if sel == nil {
		return
	}
	for _, tr := range sel.From {
		fn(tr)
	}
	for _, it := range sel.Items {
		ExprTableRefs(it.Expr, fn)
	}
	ExprTableRefs(sel.Where, fn)
	for _, g := range sel.GroupBy {
		ExprTableRefs(g, fn)
	}
	ExprTableRefs(sel.Having, fn)
	for _, o := range sel.OrderBy {
		ExprTableRefs(o.Expr, fn)
	}
}

// StmtTarget returns the table an INSERT, DELETE or UPDATE writes, or "".
func StmtTarget(st Statement) string {
	switch s := st.(type) {
	case *Insert:
		return s.Table
	case *Delete:
		return s.Table
	case *Update:
		return s.Table
	}
	return ""
}

// StmtTableRefs calls fn for every table reference in a data manipulation
// statement or SELECT (a rule action operation), including those of nested
// subqueries, in source order. Other statements have none.
func StmtTableRefs(st Statement, fn func(*TableRef)) {
	switch s := st.(type) {
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				ExprTableRefs(e, fn)
			}
		}
		selectTableRefs(s.Query, fn)
	case *Delete:
		ExprTableRefs(s.Where, fn)
	case *Update:
		for _, a := range s.Set {
			ExprTableRefs(a.Expr, fn)
		}
		ExprTableRefs(s.Where, fn)
	case *Select:
		selectTableRefs(s, fn)
	}
}
