package sqlast

import (
	"strings"
)

// opText maps binary operators to their SQL spelling.
var opText = map[BinOp]string{
	OpOr:  "OR",
	OpAnd: "AND",
	OpEq:  "=",
	OpNe:  "<>",
	OpLt:  "<",
	OpLe:  "<=",
	OpGt:  ">",
	OpGe:  ">=",
	OpAdd: "+",
	OpSub: "-",
	OpMul: "*",
	OpDiv: "/",
	OpMod: "%",
}

// String renders the operator's SQL spelling.
func (op BinOp) String() string { return opText[op] }

func (e *Literal) String() string { return e.Val.String() }

func (e *ColumnRef) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Column
	}
	return e.Column
}

// Binary expressions print fully parenthesized so that the output re-parses
// to an identical tree regardless of precedence.
func (e *Binary) String() string {
	return "(" + e.L.String() + " " + opText[e.Op] + " " + e.R.String() + ")"
}

func (e *Unary) String() string {
	switch e.Op {
	case OpNeg:
		return "(-" + e.X.String() + ")"
	case OpNot:
		return "(NOT " + e.X.String() + ")"
	default:
		return "(?" + e.X.String() + ")"
	}
}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

func notWord(negate bool) string {
	if negate {
		return "NOT "
	}
	return ""
}

func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	return "(" + e.X.String() + " " + notWord(e.Negate) + "IN (" + strings.Join(items, ", ") + "))"
}

func (e *InSelect) String() string {
	return "(" + e.X.String() + " " + notWord(e.Negate) + "IN (" + e.Sub.String() + "))"
}

func (e *Exists) String() string {
	return "(" + notWord(e.Negate) + "EXISTS (" + e.Sub.String() + "))"
}

func (e *ScalarSub) String() string { return "(" + e.Sub.String() + ")" }

func (e *SubCompare) String() string {
	q := "ANY"
	if e.Quant == QuantAll {
		q = "ALL"
	}
	return "(" + e.X.String() + " " + opText[e.Op] + " " + q + " (" + e.Sub.String() + "))"
}

func (e *Between) String() string {
	return "(" + e.X.String() + " " + notWord(e.Negate) + "BETWEEN " +
		e.Lo.String() + " AND " + e.Hi.String() + ")"
}

func (e *Like) String() string {
	return "(" + e.X.String() + " " + notWord(e.Negate) + "LIKE " + e.Pattern.String() + ")"
}

func (e *FuncCall) String() string {
	var b strings.Builder
	b.WriteString(strings.ToUpper(e.Name))
	b.WriteByte('(')
	if e.Star {
		b.WriteByte('*')
	} else {
		if e.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

func (e *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteByte(' ')
		b.WriteString(e.Operand.String())
	}
	for _, w := range e.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Result.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// String renders the table reference, including transition-table forms.
func (tr *TableRef) String() string {
	var b strings.Builder
	switch tr.Trans {
	case TransNone:
		b.WriteString(tr.Table)
	case TransInserted:
		b.WriteString("INSERTED ")
		b.WriteString(tr.Table)
	case TransDeleted:
		b.WriteString("DELETED ")
		b.WriteString(tr.Table)
	case TransOldUpdated:
		b.WriteString("OLD UPDATED ")
		b.WriteString(tr.Table)
		if tr.Column != "" {
			b.WriteByte('.')
			b.WriteString(tr.Column)
		}
	case TransNewUpdated:
		b.WriteString("NEW UPDATED ")
		b.WriteString(tr.Table)
		if tr.Column != "" {
			b.WriteByte('.')
			b.WriteString(tr.Column)
		}
	case TransSelected:
		b.WriteString("SELECTED ")
		b.WriteString(tr.Table)
		if tr.Column != "" {
			b.WriteByte('.')
			b.WriteString(tr.Column)
		}
	}
	if tr.Alias != "" {
		b.WriteByte(' ')
		b.WriteString(tr.Alias)
	}
	return b.String()
}

// String renders the query block.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Qualifier != "":
			b.WriteString(it.Qualifier)
			b.WriteString(".*")
		case it.Star:
			b.WriteByte('*')
		default:
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tr.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(s.Limit.String())
	}
	return b.String()
}

func (s *Explain) String() string { return "EXPLAIN " + s.Stmt.String() }

func (s *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Columns, ", "))
		b.WriteByte(')')
	}
	if s.Query != nil {
		b.WriteString(" (")
		b.WriteString(s.Query.String())
		b.WriteByte(')')
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

func (s *Delete) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	if s.Alias != "" {
		b.WriteByte(' ')
		b.WriteString(s.Alias)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	return b.String()
}

func (s *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	if s.Alias != "" {
		b.WriteByte(' ')
		b.WriteString(s.Alias)
	}
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column)
		b.WriteString(" = ")
		b.WriteString(a.Expr.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	return b.String()
}

func (s *CreateTable) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(s.Name)
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

func (s *CreateIndex) String() string {
	return "CREATE INDEX " + s.Name + " ON " + s.Table + " (" + s.Column + ")"
}

func (s *DropIndex) String() string { return "DROP INDEX " + s.Name }

// String renders the basic transition predicate in the paper's syntax.
func (p TransPred) String() string {
	switch p.Op {
	case PredInserted:
		return "INSERTED INTO " + p.Table
	case PredDeleted:
		return "DELETED FROM " + p.Table
	case PredUpdated:
		if p.Column != "" {
			return "UPDATED " + p.Table + "." + p.Column
		}
		return "UPDATED " + p.Table
	case PredSelected:
		if p.Column != "" {
			return "SELECTED " + p.Table + "." + p.Column
		}
		return "SELECTED " + p.Table
	default:
		return "?"
	}
}

func (s *CreateRule) String() string {
	var b strings.Builder
	b.WriteString("CREATE RULE ")
	b.WriteString(s.Name)
	if s.Scope != ScopeDefault {
		b.WriteString(" " + s.Scope.String())
	}
	b.WriteString(" WHEN ")
	for i, p := range s.Preds {
		if i > 0 {
			b.WriteString(" OR ")
		}
		b.WriteString(p.String())
	}
	if s.Condition != nil {
		b.WriteString(" IF ")
		b.WriteString(s.Condition.String())
	}
	b.WriteString(" THEN ")
	switch {
	case s.Action.Rollback:
		b.WriteString("ROLLBACK")
	case s.Action.Call != "":
		b.WriteString("CALL ")
		b.WriteString(s.Action.Call)
	default:
		for i, op := range s.Action.Block {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(op.String())
		}
	}
	b.WriteString(" END")
	return b.String()
}

func (s *CreateRulePriority) String() string {
	return "CREATE RULE PRIORITY " + s.Before + " BEFORE " + s.After
}

func (s *DropRule) String() string { return "DROP RULE " + s.Name }

func (s *SetRuleActive) String() string {
	if s.Active {
		return "ACTIVATE RULE " + s.Name
	}
	return "DEACTIVATE RULE " + s.Name
}

func (s *AlterRule) String() string { return "ALTER RULE " + s.Name + " " + s.Scope.String() }

// String renders the scope clause; ScopeDefault is SINCE ACTION.
func (s RuleScope) String() string {
	switch s {
	case ScopeSinceConsidered:
		return "SCOPE SINCE CONSIDERED"
	case ScopeSinceTriggered:
		return "SCOPE SINCE TRIGGERED"
	default:
		return "SCOPE SINCE ACTION"
	}
}

func (s *ProcessRules) String() string { return "PROCESS RULES" }
