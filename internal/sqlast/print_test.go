package sqlast

import (
	"strings"
	"testing"

	"sopr/internal/value"
)

func TestBinOpStrings(t *testing.T) {
	cases := map[BinOp]string{
		OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "<>",
		OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("BinOp(%d) = %q, want %q", int(op), got, want)
		}
	}
}

func lit(i int64) Expr { return &Literal{Val: value.NewInt(i)} }

func TestExprPrinting(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Literal{Val: value.Null}, "NULL"},
		{&ColumnRef{Column: "a"}, "a"},
		{&ColumnRef{Qualifier: "t", Column: "a"}, "t.a"},
		{&Binary{Op: OpAdd, L: lit(1), R: lit(2)}, "(1 + 2)"},
		{&Unary{Op: OpNeg, X: lit(3)}, "(-3)"},
		{&Unary{Op: OpNot, X: lit(1)}, "(NOT 1)"},
		{&IsNull{X: lit(1)}, "(1 IS NULL)"},
		{&IsNull{X: lit(1), Negate: true}, "(1 IS NOT NULL)"},
		{&InList{X: lit(1), List: []Expr{lit(2), lit(3)}}, "(1 IN (2, 3))"},
		{&InList{X: lit(1), List: []Expr{lit(2)}, Negate: true}, "(1 NOT IN (2))"},
		{&Between{X: lit(1), Lo: lit(0), Hi: lit(9)}, "(1 BETWEEN 0 AND 9)"},
		{&Between{X: lit(1), Lo: lit(0), Hi: lit(9), Negate: true}, "(1 NOT BETWEEN 0 AND 9)"},
		{&Like{X: &ColumnRef{Column: "n"}, Pattern: &Literal{Val: value.NewString("a%")}}, "(n LIKE 'a%')"},
		{&FuncCall{Name: "count", Star: true}, "COUNT(*)"},
		{&FuncCall{Name: "sum", Distinct: true, Args: []Expr{&ColumnRef{Column: "x"}}}, "SUM(DISTINCT x)"},
		{&FuncCall{Name: "coalesce", Args: []Expr{lit(1), lit(2)}}, "COALESCE(1, 2)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestSubqueryPrinting(t *testing.T) {
	sub := &Select{
		Items: []SelectItem{{Expr: &ColumnRef{Column: "a"}}},
		From:  []*TableRef{{Table: "t"}},
	}
	cases := []struct {
		e    Expr
		want string
	}{
		{&InSelect{X: lit(1), Sub: sub}, "(1 IN (SELECT a FROM t))"},
		{&InSelect{X: lit(1), Sub: sub, Negate: true}, "(1 NOT IN (SELECT a FROM t))"},
		{&Exists{Sub: sub}, "(EXISTS (SELECT a FROM t))"},
		{&Exists{Sub: sub, Negate: true}, "(NOT EXISTS (SELECT a FROM t))"},
		{&ScalarSub{Sub: sub}, "(SELECT a FROM t)"},
		{&SubCompare{X: lit(1), Op: OpGt, Quant: QuantAny, Sub: sub}, "(1 > ANY (SELECT a FROM t))"},
		{&SubCompare{X: lit(1), Op: OpLe, Quant: QuantAll, Sub: sub}, "(1 <= ALL (SELECT a FROM t))"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestTableRefForms(t *testing.T) {
	cases := []struct {
		tr   TableRef
		want string
	}{
		{TableRef{Table: "t"}, "t"},
		{TableRef{Table: "t", Alias: "x"}, "t x"},
		{TableRef{Trans: TransInserted, Table: "t"}, "INSERTED t"},
		{TableRef{Trans: TransDeleted, Table: "t", Alias: "d"}, "DELETED t d"},
		{TableRef{Trans: TransOldUpdated, Table: "t"}, "OLD UPDATED t"},
		{TableRef{Trans: TransOldUpdated, Table: "t", Column: "c"}, "OLD UPDATED t.c"},
		{TableRef{Trans: TransNewUpdated, Table: "t", Column: "c", Alias: "n"}, "NEW UPDATED t.c n"},
		{TableRef{Trans: TransSelected, Table: "t", Column: "c"}, "SELECTED t.c"},
	}
	for _, c := range cases {
		if got := c.tr.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
	if (&TableRef{Table: "t", Alias: "x"}).Binding() != "x" {
		t.Error("Binding should prefer alias")
	}
	if (&TableRef{Table: "t"}).Binding() != "t" {
		t.Error("Binding falls back to table")
	}
}

func TestTransPredStrings(t *testing.T) {
	cases := []struct {
		p    TransPred
		want string
	}{
		{TransPred{Op: PredInserted, Table: "t"}, "INSERTED INTO t"},
		{TransPred{Op: PredDeleted, Table: "t"}, "DELETED FROM t"},
		{TransPred{Op: PredUpdated, Table: "t"}, "UPDATED t"},
		{TransPred{Op: PredUpdated, Table: "t", Column: "c"}, "UPDATED t.c"},
		{TransPred{Op: PredSelected, Table: "t"}, "SELECTED t"},
		{TransPred{Op: PredSelected, Table: "t", Column: "c"}, "SELECTED t.c"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestStatementPrinting(t *testing.T) {
	if got := (&DropTable{Name: "t"}).String(); got != "DROP TABLE t" {
		t.Errorf("DropTable: %q", got)
	}
	if got := (&DropRule{Name: "r"}).String(); got != "DROP RULE r" {
		t.Errorf("DropRule: %q", got)
	}
	if got := (&SetRuleActive{Name: "r", Active: true}).String(); got != "ACTIVATE RULE r" {
		t.Errorf("activate: %q", got)
	}
	if got := (&SetRuleActive{Name: "r"}).String(); got != "DEACTIVATE RULE r" {
		t.Errorf("deactivate: %q", got)
	}
	if got := (&AlterRule{Name: "r"}).String(); got != "ALTER RULE r SCOPE SINCE ACTION" {
		t.Errorf("alter rule: %q", got)
	}
	if got := (&AlterRule{Name: "r", Scope: ScopeSinceTriggered}).String(); got != "ALTER RULE r SCOPE SINCE TRIGGERED" {
		t.Errorf("alter rule: %q", got)
	}
	if got := (&ProcessRules{}).String(); got != "PROCESS RULES" {
		t.Errorf("process rules: %q", got)
	}
	if got := (&CreateRulePriority{Before: "a", After: "b"}).String(); got != "CREATE RULE PRIORITY a BEFORE b" {
		t.Errorf("priority: %q", got)
	}
	ins := &Insert{Table: "t", Columns: []string{"a", "b"}, Rows: [][]Expr{{lit(1), lit(2)}, {lit(3), lit(4)}}}
	if got := ins.String(); got != "INSERT INTO t (a, b) VALUES (1, 2), (3, 4)" {
		t.Errorf("insert: %q", got)
	}
	del := &Delete{Table: "t", Alias: "x", Where: lit(1)}
	if got := del.String(); got != "DELETE FROM t x WHERE 1" {
		t.Errorf("delete: %q", got)
	}
	upd := &Update{Table: "t", Alias: "x", Set: []Assignment{{Column: "a", Expr: lit(1)}}}
	if got := upd.String(); got != "UPDATE t x SET a = 1" {
		t.Errorf("update: %q", got)
	}
}

func TestSelectPrintingVariants(t *testing.T) {
	sel := &Select{
		Distinct: true,
		Items: []SelectItem{
			{Star: true},
			{Star: true, Qualifier: "q"},
			{Expr: &ColumnRef{Column: "a"}, Alias: "x"},
		},
		From:    []*TableRef{{Table: "t"}, {Table: "u", Alias: "q"}},
		Where:   lit(1),
		GroupBy: []Expr{&ColumnRef{Column: "a"}},
		Having:  lit(1),
		OrderBy: []OrderItem{{Expr: &ColumnRef{Column: "a"}, Desc: true}, {Expr: &ColumnRef{Column: "x"}}},
	}
	got := sel.String()
	for _, frag := range []string{"SELECT DISTINCT *", "q.*", "a AS x", "FROM t, u q",
		"WHERE 1", "GROUP BY a", "HAVING 1", "ORDER BY a DESC, x"} {
		if !strings.Contains(got, frag) {
			t.Errorf("select printing missing %q in %q", frag, got)
		}
	}
}

func TestCasePrinting(t *testing.T) {
	c := &Case{
		Whens: []When{{Cond: lit(1), Result: lit(2)}},
		Else:  lit(3),
	}
	if got := c.String(); got != "CASE WHEN 1 THEN 2 ELSE 3 END" {
		t.Errorf("searched case: %q", got)
	}
	c = &Case{
		Operand: &ColumnRef{Column: "x"},
		Whens:   []When{{Cond: lit(1), Result: lit(2)}, {Cond: lit(3), Result: lit(4)}},
	}
	if got := c.String(); got != "CASE x WHEN 1 THEN 2 WHEN 3 THEN 4 END" {
		t.Errorf("simple case: %q", got)
	}
}

func TestCreateTablePrinting(t *testing.T) {
	ct := &CreateTable{Name: "t", Columns: []ColumnDef{
		{Name: "a", Type: value.KindInt, NotNull: true},
		{Name: "b", Type: value.KindString},
	}}
	want := "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR)"
	if got := ct.String(); got != want {
		t.Errorf("CreateTable: %q, want %q", got, want)
	}
}

func TestCreateRuleScopePrinting(t *testing.T) {
	cr := &CreateRule{
		Name:   "r",
		Scope:  ScopeSinceTriggered,
		Preds:  []TransPred{{Op: PredUpdated, Table: "t"}},
		Action: RuleAction{Rollback: true},
	}
	if got := cr.String(); !strings.Contains(got, "SCOPE SINCE TRIGGERED") {
		t.Errorf("scope printing: %q", got)
	}
	cr.Scope = ScopeSinceConsidered
	if got := cr.String(); !strings.Contains(got, "SCOPE SINCE CONSIDERED") {
		t.Errorf("scope printing: %q", got)
	}
	cr.Scope = ScopeDefault
	if got := cr.String(); strings.Contains(got, "SCOPE") {
		t.Errorf("default scope should not print: %q", got)
	}
}
