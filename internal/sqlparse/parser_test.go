package sqlparse

import (
	"reflect"
	"strings"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/value"
)

func parse1(t *testing.T, src string) sqlast.Statement {
	t.Helper()
	s, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("ParseStatement(%q): %v", src, err)
	}
	return s
}

func parseExpr(t *testing.T, src string) sqlast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a1,b.c FROM t WHERE x >= 1.5 -- comment\nAND s = 'it''s' != <>")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := []string{"select", "a1", ",", "b", ".", "c", "from", "t", "where", "x", ">=", "1.5",
		"and", "s", "=", "it's", "<>", "<>", ""}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("lex = %v,\nwant %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("a ? b"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("lone ! accepted")
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1e3 1.5E-2 7.e")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "1e3", "1.5E-2", "7", ".", "e"}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("tok[%d] = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	s := parse1(t, `CREATE TABLE emp (name VARCHAR(20), emp_no INT NOT NULL, salary FLOAT, dept_no INTEGER)`)
	ct, ok := s.(*sqlast.CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "emp" || len(ct.Columns) != 4 {
		t.Fatalf("bad create: %+v", ct)
	}
	if ct.Columns[0].Type != value.KindString || ct.Columns[1].Type != value.KindInt ||
		!ct.Columns[1].NotNull || ct.Columns[2].Type != value.KindFloat {
		t.Errorf("column types wrong: %+v", ct.Columns)
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	s := parse1(t, `CREATE INDEX emp_no_ix ON emp (emp_no)`)
	ci, ok := s.(*sqlast.CreateIndex)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ci.Name != "emp_no_ix" || ci.Table != "emp" || ci.Column != "emp_no" {
		t.Fatalf("bad create index: %+v", ci)
	}
	d := parse1(t, `drop index EMP_NO_IX`)
	di, ok := d.(*sqlast.DropIndex)
	if !ok || di.Name != "emp_no_ix" {
		t.Fatalf("bad drop index: %#v", d)
	}
	// Malformed forms fail with a parse error, not a panic.
	for _, bad := range []string{
		`create index on emp (emp_no)`,
		`create index ix emp (emp_no)`,
		`create index ix on emp emp_no`,
		`create index ix on emp (emp_no, salary)`,
		`create index ix on emp ()`,
		`drop index`,
	} {
		if _, err := ParseStatement(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestParseInsertValues(t *testing.T) {
	s := parse1(t, `INSERT INTO emp VALUES ('jane', 1, 95000.0, 1), ('jim', 2, NULL, 1)`)
	ins := s.(*sqlast.Insert)
	if ins.Table != "emp" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 4 {
		t.Fatalf("bad insert: %+v", ins)
	}
	if ins.Rows[1][2].(*sqlast.Literal).Val != value.Null {
		t.Error("NULL literal not parsed")
	}
}

func TestParseInsertColumnsAndSelect(t *testing.T) {
	s := parse1(t, `INSERT INTO t (a, b) VALUES (1, 2)`)
	ins := s.(*sqlast.Insert)
	if !reflect.DeepEqual(ins.Columns, []string{"a", "b"}) {
		t.Errorf("columns = %v", ins.Columns)
	}
	s = parse1(t, `INSERT INTO t (SELECT a, b FROM u WHERE a > 0)`)
	ins = s.(*sqlast.Insert)
	if ins.Query == nil || ins.Rows != nil {
		t.Fatalf("select-form insert not recognized: %+v", ins)
	}
	s = parse1(t, `INSERT INTO t SELECT * FROM u`)
	ins = s.(*sqlast.Insert)
	if ins.Query == nil {
		t.Fatal("unparenthesized select-form insert not recognized")
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	s := parse1(t, `DELETE FROM emp WHERE dept_no IN (SELECT dept_no FROM deleted dept)`)
	del := s.(*sqlast.Delete)
	if del.Table != "emp" || del.Where == nil {
		t.Fatalf("bad delete: %+v", del)
	}
	insel := del.Where.(*sqlast.InSelect)
	if insel.Sub.From[0].Trans != sqlast.TransDeleted || insel.Sub.From[0].Table != "dept" {
		t.Errorf("transition table not parsed: %+v", insel.Sub.From[0])
	}

	s = parse1(t, `UPDATE emp SET salary = 0.95 * salary, name = 'x' WHERE dept_no = 2`)
	upd := s.(*sqlast.Update)
	if len(upd.Set) != 2 || upd.Set[0].Column != "salary" || upd.Where == nil {
		t.Fatalf("bad update: %+v", upd)
	}
	s = parse1(t, `DELETE FROM emp`)
	if s.(*sqlast.Delete).Where != nil {
		t.Error("omitted predicate should be nil (means WHERE TRUE)")
	}
}

func TestParseSelectFull(t *testing.T) {
	s := parse1(t, `SELECT DISTINCT e.name AS n, salary + 1 bonus, COUNT(*) FROM emp e, dept
		WHERE e.dept_no = dept.dept_no AND salary > 100 GROUP BY e.name, salary
		HAVING COUNT(*) > 1 ORDER BY n DESC, salary ASC`)
	sel := s.(*sqlast.Select)
	if !sel.Distinct || len(sel.Items) != 3 || len(sel.From) != 2 ||
		len(sel.GroupBy) != 2 || sel.Having == nil || len(sel.OrderBy) != 2 {
		t.Fatalf("bad select: %+v", sel)
	}
	if sel.Items[0].Alias != "n" || sel.Items[1].Alias != "bonus" {
		t.Errorf("aliases: %+v", sel.Items)
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by direction wrong: %+v", sel.OrderBy)
	}
	if sel.From[0].Binding() != "e" || sel.From[1].Binding() != "dept" {
		t.Errorf("bindings: %v %v", sel.From[0].Binding(), sel.From[1].Binding())
	}
}

func TestParseStarForms(t *testing.T) {
	sel := parse1(t, `SELECT * FROM t`).(*sqlast.Select)
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "" {
		t.Error("bare * wrong")
	}
	sel = parse1(t, `SELECT t.*, a FROM t`).(*sqlast.Select)
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "t" || sel.Items[1].Star {
		t.Error("qualified star wrong")
	}
}

func TestParseTransitionTables(t *testing.T) {
	sel := parse1(t, `SELECT sum(salary) FROM new updated emp.salary`).(*sqlast.Select)
	tr := sel.From[0]
	if tr.Trans != sqlast.TransNewUpdated || tr.Table != "emp" || tr.Column != "salary" {
		t.Fatalf("new updated: %+v", tr)
	}
	sel = parse1(t, `SELECT * FROM old updated emp ou`).(*sqlast.Select)
	tr = sel.From[0]
	if tr.Trans != sqlast.TransOldUpdated || tr.Column != "" || tr.Alias != "ou" {
		t.Fatalf("old updated with alias: %+v", tr)
	}
	sel = parse1(t, `SELECT * FROM inserted t tvar`).(*sqlast.Select)
	tr = sel.From[0]
	if tr.Trans != sqlast.TransInserted || tr.Table != "t" || tr.Alias != "tvar" {
		t.Fatalf("inserted with alias: %+v", tr)
	}
	sel = parse1(t, `SELECT * FROM selected emp.salary`).(*sqlast.Select)
	if sel.From[0].Trans != sqlast.TransSelected || sel.From[0].Column != "salary" {
		t.Fatalf("selected: %+v", sel.From[0])
	}
	// A plain table named "inserted" at end of FROM (next token is WHERE)
	// parses as a base table.
	sel = parse1(t, `SELECT * FROM inserted WHERE a = 1`).(*sqlast.Select)
	if sel.From[0].Trans != sqlast.TransNone || sel.From[0].Table != "inserted" {
		t.Fatalf("bare 'inserted': %+v", sel.From[0])
	}
}

func TestParseExpressions(t *testing.T) {
	e := parseExpr(t, `a + b * c`)
	bin := e.(*sqlast.Binary)
	if bin.Op != sqlast.OpAdd || bin.R.(*sqlast.Binary).Op != sqlast.OpMul {
		t.Errorf("precedence wrong: %s", e)
	}
	e = parseExpr(t, `(a + b) * c`)
	if e.(*sqlast.Binary).Op != sqlast.OpMul {
		t.Errorf("parens wrong: %s", e)
	}
	e = parseExpr(t, `NOT a = 1 AND b = 2 OR c = 3`)
	if e.(*sqlast.Binary).Op != sqlast.OpOr {
		t.Errorf("OR should be outermost: %s", e)
	}
	e = parseExpr(t, `x IS NOT NULL`)
	if !e.(*sqlast.IsNull).Negate {
		t.Error("IS NOT NULL")
	}
	e = parseExpr(t, `x NOT IN (1, 2, 3)`)
	if il := e.(*sqlast.InList); !il.Negate || len(il.List) != 3 {
		t.Errorf("NOT IN list: %s", e)
	}
	e = parseExpr(t, `x BETWEEN 1 AND 10`)
	if e.(*sqlast.Between).Negate {
		t.Error("BETWEEN")
	}
	e = parseExpr(t, `name NOT LIKE 'a%'`)
	if !e.(*sqlast.Like).Negate {
		t.Error("NOT LIKE")
	}
	e = parseExpr(t, `-x + 2`)
	if e.(*sqlast.Binary).L.(*sqlast.Unary).Op != sqlast.OpNeg {
		t.Errorf("unary minus: %s", e)
	}
	e = parseExpr(t, `salary > ALL (SELECT salary FROM emp)`)
	sc := e.(*sqlast.SubCompare)
	if sc.Quant != sqlast.QuantAll || sc.Op != sqlast.OpGt {
		t.Errorf("ALL subquery: %s", e)
	}
	e = parseExpr(t, `x = ANY (SELECT a FROM t)`)
	if e.(*sqlast.SubCompare).Quant != sqlast.QuantAny {
		t.Errorf("ANY subquery: %s", e)
	}
	e = parseExpr(t, `EXISTS (SELECT * FROM t)`)
	if e.(*sqlast.Exists).Negate {
		t.Error("EXISTS")
	}
	e = parseExpr(t, `NOT EXISTS (SELECT * FROM t)`)
	if e.(*sqlast.Unary).Op != sqlast.OpNot {
		t.Errorf("NOT EXISTS parses as NOT(EXISTS): %s", e)
	}
	e = parseExpr(t, `COUNT(DISTINCT dept_no)`)
	fc := e.(*sqlast.FuncCall)
	if !fc.Distinct || fc.Name != "count" {
		t.Errorf("COUNT DISTINCT: %+v", fc)
	}
	e = parseExpr(t, `(SELECT sum(salary) FROM emp)`)
	if _, ok := e.(*sqlast.ScalarSub); !ok {
		t.Errorf("scalar subquery: %T", e)
	}
	e = parseExpr(t, `a % 3 = 0`)
	if e.(*sqlast.Binary).L.(*sqlast.Binary).Op != sqlast.OpMod {
		t.Errorf("mod: %s", e)
	}
}

func TestParseCase(t *testing.T) {
	e := parseExpr(t, `case when a > 1 then 'big' when a > 0 then 'small' else 'neg' end`)
	c := e.(*sqlast.Case)
	if c.Operand != nil || len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("searched case: %+v", c)
	}
	e = parseExpr(t, `case dept_no when 1 then 'eng' when 2 then 'ops' end`)
	c = e.(*sqlast.Case)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Fatalf("simple case: %+v", c)
	}
	for _, bad := range []string{
		`case end`,
		`case when a then b`,
		`case a when 1 then 2 else`,
		`case when a > 1 then 1 else 2`,
	} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// CASE inside a rule action does not consume the rule's END.
	r := parse1(t, `create rule r when inserted into t
		then update t set a = case when a > 0 then 1 else 0 end
		end`).(*sqlast.CreateRule)
	if len(r.Action.Block) != 1 {
		t.Errorf("rule with CASE action: %+v", r.Action)
	}
}

func TestParsePaperExample31(t *testing.T) {
	// Example 3.1 verbatim (modulo identifier spelling).
	src := `create rule cascade_dept
		when deleted from dept
		then delete from emp
		     where dept_no in (select dept_no from deleted dept)`
	r := parse1(t, src).(*sqlast.CreateRule)
	if r.Name != "cascade_dept" || len(r.Preds) != 1 || r.Condition != nil {
		t.Fatalf("rule: %+v", r)
	}
	if r.Preds[0].Op != sqlast.PredDeleted || r.Preds[0].Table != "dept" {
		t.Errorf("pred: %+v", r.Preds[0])
	}
	if len(r.Action.Block) != 1 {
		t.Fatalf("action ops: %d", len(r.Action.Block))
	}
	if _, ok := r.Action.Block[0].(*sqlast.Delete); !ok {
		t.Errorf("action is %T", r.Action.Block[0])
	}
}

func TestParsePaperExample32(t *testing.T) {
	// Example 3.2: condition on old/new updated, two-operation action.
	src := `create rule salary_control
		when updated emp.salary
		if (select sum(salary) from new updated emp.salary) >
		   (select sum(salary) from old updated emp.salary)
		then update emp set salary = 0.95 * salary where dept_no = 2;
		     update emp set salary = 0.85 * salary where dept_no = 3`
	r := parse1(t, src).(*sqlast.CreateRule)
	if r.Preds[0].Op != sqlast.PredUpdated || r.Preds[0].Column != "salary" {
		t.Fatalf("pred: %+v", r.Preds[0])
	}
	if r.Condition == nil {
		t.Fatal("condition missing")
	}
	if len(r.Action.Block) != 2 {
		t.Fatalf("want 2 action ops, got %d", len(r.Action.Block))
	}
}

func TestParsePaperExample33(t *testing.T) {
	// Example 3.3: composite predicate, correlated subquery.
	src := `create rule overpaid
		when inserted into emp
		  or deleted from emp
		  or updated emp.salary
		  or updated emp.dept_no
		if exists (select * from emp e1
		           where salary > 2 * (select avg(salary) from emp e2
		                               where e2.dept_no = e1.dept_no))
		then delete from emp
		     where emp_no = (select mgr_no from dept where dept_no = 5)`
	r := parse1(t, src).(*sqlast.CreateRule)
	if len(r.Preds) != 4 {
		t.Fatalf("want 4 predicates, got %d", len(r.Preds))
	}
	wantOps := []sqlast.TransPredOp{sqlast.PredInserted, sqlast.PredDeleted, sqlast.PredUpdated, sqlast.PredUpdated}
	for i, w := range wantOps {
		if r.Preds[i].Op != w {
			t.Errorf("pred[%d].Op = %v, want %v", i, r.Preds[i].Op, w)
		}
	}
	if r.Preds[2].Column != "salary" || r.Preds[3].Column != "dept_no" {
		t.Errorf("columns: %+v", r.Preds)
	}
}

func TestParseRuleScope(t *testing.T) {
	r := parse1(t, `create rule r scope since considered when inserted into t then rollback`).(*sqlast.CreateRule)
	if r.Scope != sqlast.ScopeSinceConsidered {
		t.Errorf("scope = %v", r.Scope)
	}
	r = parse1(t, `create rule r scope since triggered when inserted into t then rollback`).(*sqlast.CreateRule)
	if r.Scope != sqlast.ScopeSinceTriggered {
		t.Errorf("scope = %v", r.Scope)
	}
	r = parse1(t, `create rule r scope since action when inserted into t then rollback`).(*sqlast.CreateRule)
	if r.Scope != sqlast.ScopeDefault {
		t.Errorf("scope = %v", r.Scope)
	}
	if _, err := ParseStatement(`create rule r scope since never when inserted into t then rollback`); err == nil {
		t.Error("bad scope accepted")
	}
	if _, err := ParseStatement(`create rule r scope considered when inserted into t then rollback`); err == nil {
		t.Error("missing SINCE accepted")
	}
}

// TestParseAlterRuleScope: ALTER RULE reuses CREATE RULE's scope clause,
// and every form prints back to text that parses to the same statement
// (the WAL logs and replays definitions as text).
func TestParseAlterRuleScope(t *testing.T) {
	for src, want := range map[string]sqlast.RuleScope{
		`alter rule r scope since action`:     sqlast.ScopeDefault,
		`alter rule r scope since considered`: sqlast.ScopeSinceConsidered,
		`ALTER RULE r SCOPE SINCE TRIGGERED`:  sqlast.ScopeSinceTriggered,
	} {
		a, ok := parse1(t, src).(*sqlast.AlterRule)
		if !ok || a.Name != "r" || a.Scope != want {
			t.Errorf("%s: parsed %+v", src, a)
			continue
		}
		again := parse1(t, a.String()).(*sqlast.AlterRule)
		if *again != *a {
			t.Errorf("%s: round trip %q gave %+v", src, a.String(), again)
		}
	}
	for _, bad := range []string{
		`alter rule r`,
		`alter rule r scope considered`,
		`alter rule r scope since never`,
		`alter table r scope since action`,
	} {
		if _, err := ParseStatement(bad); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

func TestParseRollbackAndCallActions(t *testing.T) {
	r := parse1(t, `create rule guard when updated t.a then rollback`).(*sqlast.CreateRule)
	if !r.Action.Rollback {
		t.Error("rollback action")
	}
	r = parse1(t, `create rule notify when inserted into t then call send_mail`).(*sqlast.CreateRule)
	if r.Action.Call != "send_mail" {
		t.Errorf("call action: %+v", r.Action)
	}
}

func TestParseRulePriorityAndMgmt(t *testing.T) {
	s := parse1(t, `create rule priority r2 before r1`)
	pr := s.(*sqlast.CreateRulePriority)
	if pr.Before != "r2" || pr.After != "r1" {
		t.Errorf("priority: %+v", pr)
	}
	if parse1(t, `drop rule r1`).(*sqlast.DropRule).Name != "r1" {
		t.Error("drop rule")
	}
	if !parse1(t, `activate rule r1`).(*sqlast.SetRuleActive).Active {
		t.Error("activate")
	}
	if parse1(t, `deactivate rule r1`).(*sqlast.SetRuleActive).Active {
		t.Error("deactivate")
	}
	if _, ok := parse1(t, `process rules`).(*sqlast.ProcessRules); !ok {
		t.Error("process rules")
	}
}

func TestParseScriptWithRuleAndEnd(t *testing.T) {
	// END is needed when the next statement would look like part of the
	// action block.
	src := `create table t (a int);
		create rule r when inserted into t then delete from t where a < 0 end;
		insert into t values (1);
		select * from t`
	stmts, err := ParseStatements(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("want 4 statements, got %d", len(stmts))
	}
	if _, ok := stmts[1].(*sqlast.CreateRule); !ok {
		t.Errorf("stmt 1 is %T", stmts[1])
	}
	if _, ok := stmts[2].(*sqlast.Insert); !ok {
		t.Errorf("stmt 2 is %T (rule swallowed the insert?)", stmts[2])
	}
}

func TestParseScriptRuleWithoutEndBeforeNonDML(t *testing.T) {
	// Without END, a following statement that cannot be an action
	// operation still terminates the rule.
	src := `create rule r when inserted into t then delete from t;
		drop table t`
	stmts, err := ParseStatements(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("want 2 statements, got %d", len(stmts))
	}
	r := stmts[0].(*sqlast.CreateRule)
	if len(r.Action.Block) != 1 {
		t.Errorf("action ops: %d", len(r.Action.Block))
	}
}

func TestParseSelectInRuleAction(t *testing.T) {
	// Section 5.1: data retrieval in actions. A following SELECT continues
	// the block, so END is required to write a select-then-statement
	// script.
	src := `create rule report when updated emp.salary
		then select name, salary from new updated emp.salary;
		     delete from emp where salary < 0
		end;
		select * from emp`
	stmts, err := ParseStatements(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("want 2 statements, got %d", len(stmts))
	}
	r := stmts[0].(*sqlast.CreateRule)
	if len(r.Action.Block) != 2 {
		t.Fatalf("action ops: %d", len(r.Action.Block))
	}
	if _, ok := r.Action.Block[0].(*sqlast.Select); !ok {
		t.Errorf("first action op is %T, want *Select", r.Action.Block[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC * FROM t`,
		`CREATE TABLE`,
		`CREATE TABLE t ()`,
		`CREATE TABLE t (a blob)`,
		`INSERT INTO t`,
		`INSERT t VALUES (1)`,
		`DELETE t`,
		`UPDATE t WHERE a = 1`,
		`SELECT FROM t`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t GROUP a`,
		`create rule r then delete from t`,
		`create rule r when inserted t then delete from t`,
		`create rule r when inserted into t`,
		`create rule r when inserted into t then drop table t`,
		`create rule r when deleted into t then rollback`,
		`x +`,
		`(a`,
		`f(a,`,
		`x in (`,
		`x between 1`,
		`create table t (a int,)`,
		`select * from t as`,
		`select a as from t`,
		`update t as set a = 1`,
		`insert into t values (1),`,
		`select a from t order by`,
		`create rule r scope when inserted into t then rollback`,
		`select case when 1 = 1 then 2`,
		`drop`,
		`create`,
		`activate r`,
		`process`,
		`select (select a from t`,
		`select f(`,
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("accepted invalid input %q", src)
		}
	}
	if _, err := ParseExpr(`a b`); err == nil {
		t.Error("trailing junk after expression accepted")
	}
	if _, err := ParseStatement(`select * from t; select * from t`); err == nil {
		t.Error("ParseStatement accepted two statements")
	}
}

// Round-trip: parse → print → parse yields a structurally identical tree.
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT * FROM t`,
		`SELECT DISTINCT a, b + 1 AS c FROM t, u x WHERE (a = 1 AND b < 2) OR NOT c IS NULL GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC, b`,
		`SELECT t.* FROM t WHERE a IN (1, 2) AND b NOT IN (SELECT b FROM u) AND EXISTS (SELECT * FROM v)`,
		`SELECT SUM(DISTINCT salary), AVG(x), MIN(y), MAX(z), COUNT(*) FROM emp`,
		`SELECT a FROM emp WHERE salary > ALL (SELECT salary FROM emp) AND x = ANY (SELECT y FROM u)`,
		`SELECT CASE WHEN (a > 1) THEN 'x' ELSE 'y' END FROM t`,
		`SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END FROM t`,
		`SELECT a FROM inserted emp i, deleted dept, old updated emp.salary o, new updated emp n`,
		`INSERT INTO t VALUES (1, 2.5, 'x', NULL, TRUE)`,
		`INSERT INTO t (a, b) (SELECT a, b FROM u WHERE a BETWEEN 1 AND 2)`,
		`DELETE FROM emp WHERE dept_no IN (SELECT dept_no FROM deleted dept)`,
		`UPDATE emp e SET salary = (0.95 * salary), name = 'x' WHERE name LIKE 'a%'`,
		`CREATE TABLE emp (name VARCHAR, emp_no INTEGER NOT NULL, salary FLOAT, dept_no INTEGER)`,
		`DROP TABLE emp`,
		`CREATE INDEX emp_no_ix ON emp (emp_no)`,
		`DROP INDEX emp_no_ix`,
		`CREATE RULE r WHEN INSERTED INTO emp OR DELETED FROM emp OR UPDATED emp.salary OR UPDATED emp IF (a = 1) THEN DELETE FROM emp WHERE (a = 2); UPDATE emp SET a = 3 END`,
		`CREATE RULE r WHEN UPDATED t.c THEN ROLLBACK END`,
		`CREATE RULE r SCOPE SINCE CONSIDERED WHEN UPDATED t THEN ROLLBACK END`,
		`CREATE RULE r SCOPE SINCE TRIGGERED WHEN UPDATED t THEN ROLLBACK END`,
		`CREATE RULE r WHEN SELECTED t.c THEN CALL audit END`,
		`CREATE RULE PRIORITY r2 BEFORE r1`,
		`DROP RULE r`,
		`ACTIVATE RULE r`,
		`DEACTIVATE RULE r`,
		`PROCESS RULES`,
	}
	for _, src := range srcs {
		s1, err := ParseStatement(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		printed := s1.String()
		s2, err := ParseStatement(printed)
		if err != nil {
			t.Errorf("re-parse of %q (printed as %q): %v", src, printed, err)
			continue
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("round-trip mismatch for %q:\n first: %#v\nsecond: %#v\nprinted: %s", src, s1, s2, printed)
		}
		// Printing must be a fixed point after one round.
		if printed2 := s2.String(); printed2 != printed {
			t.Errorf("printer not stable: %q then %q", printed, printed2)
		}
	}
}

func TestErrorLineAndColumn(t *testing.T) {
	_, err := ParseStatements("select a\nfrom t\nwhere ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3, column 7") {
		t.Errorf("error position: %v", err)
	}
	// Parse-level (non-lex) error positions too.
	_, err = ParseStatements("select a\nfrom t\nwhere and")
	if err == nil || !strings.Contains(err.Error(), "line 3, column 7") {
		t.Errorf("parse error position: %v", err)
	}
	// Errors at end of input point past the last line.
	_, err = ParseStatements("select a from")
	if err == nil || !strings.Contains(err.Error(), "line 1, column 14") {
		t.Errorf("eof error position: %v", err)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	a := parse1(t, `select NAME from EMP where SALARY > 1`)
	b := parse1(t, `SELECT name FROM emp WHERE salary > 1`)
	if !reflect.DeepEqual(a, b) {
		t.Error("keywords/identifiers are not case-insensitive")
	}
}

func TestStringEscaping(t *testing.T) {
	sel := parse1(t, `select * from t where a = 'it''s ok'`).(*sqlast.Select)
	eq := sel.Where.(*sqlast.Binary)
	if eq.R.(*sqlast.Literal).Val.Str() != "it's ok" {
		t.Errorf("escaped string: %v", eq.R)
	}
	// Round-trip via printer.
	if !strings.Contains(sel.String(), "'it''s ok'") {
		t.Errorf("printer escaping: %s", sel.String())
	}
}
