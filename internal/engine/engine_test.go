package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sopr/internal/rules"
)

// newEmpEngine builds an engine with the paper's emp/dept schema.
func newEmpEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec(t, e, `
		create table emp (name varchar, emp_no int not null, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int);
	`)
	return e
}

func mustExec(t *testing.T, e *Engine, src string) *TxnResult {
	t.Helper()
	res, err := e.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func count(t *testing.T, e *Engine, table string) int {
	t.Helper()
	n, err := e.Store().Count(table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func names(t *testing.T, e *Engine, src string) []string {
	t.Helper()
	res, err := e.QueryString(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].Str())
	}
	return out
}

func TestDDLAndDML(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `insert into emp values ('a', 1, 10, 1), ('b', 2, 20, 1)`)
	if count(t, e, "emp") != 2 {
		t.Fatal("insert failed")
	}
	res := mustExec(t, e, `select name from emp order by name`)
	if len(res.Queries) != 1 || len(res.Queries[0].Rows) != 2 {
		t.Fatalf("query via Exec: %+v", res.Queries)
	}
	mustExec(t, e, `update emp set salary = 99 where name = 'a'; delete from emp where name = 'b'`)
	if count(t, e, "emp") != 1 {
		t.Fatal("update/delete block failed")
	}
	if _, err := e.Exec(`drop table emp`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`select * from emp`); err == nil {
		t.Fatal("dropped table still queryable")
	}
}

func TestExecErrors(t *testing.T) {
	e := newEmpEngine(t, Config{})
	for _, src := range []string{
		`this is not sql`,
		`create table emp (x int)`, // duplicate
		`drop table nosuch`,
		`insert into nosuch values (1)`,
		`drop rule nosuch`,
		`activate rule nosuch`,
		`create rule priority a before b`, // rules don't exist
	} {
		if _, err := e.Exec(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	if _, err := e.QueryString(`insert into emp values ('a',1,1,1)`); err == nil {
		t.Error("QueryString accepted non-SELECT")
	}
}

func TestBlockAtomicityOnError(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `insert into emp values ('keep', 1, 10, 1)`)
	// Second op fails (NOT NULL violation) → whole block rolls back.
	_, err := e.Exec(`insert into emp values ('gone', 2, 10, 1);
		insert into emp (name) values ('bad')`)
	if err == nil {
		t.Fatal("expected error")
	}
	if got := count(t, e, "emp"); got != 1 {
		t.Errorf("block not atomic: %d rows", got)
	}
}

func TestBasicRuleTriggering(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table audit (what varchar, who varchar)`)
	mustExec(t, e, `
		create rule log_hires
		when inserted into emp
		then insert into audit (select 'hire', name from inserted emp)
		end
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 10, 1), ('b', 2, 20, 1)`)
	if len(res.Firings) != 1 || res.Firings[0].Rule != "log_hires" {
		t.Fatalf("firings: %+v", res.Firings)
	}
	if got := names(t, e, `select who from audit order by who`); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("audit rows: %v (set-oriented rule should see both inserts at once)", got)
	}
	// A block touching another table does not trigger the rule.
	res = mustExec(t, e, `insert into dept values (1, 1)`)
	if len(res.Firings) != 0 {
		t.Errorf("rule fired for unrelated table: %+v", res.Firings)
	}
	// An update to emp does not satisfy `inserted into emp`.
	res = mustExec(t, e, `update emp set salary = 1`)
	if len(res.Firings) != 0 {
		t.Errorf("rule fired for update: %+v", res.Firings)
	}
}

func TestConditionGatesAction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule cap
		when inserted into emp
		if (select count(*) from emp) > 2
		then delete from emp where emp_no in (select emp_no from inserted emp)
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 10, 1)`)
	mustExec(t, e, `insert into emp values ('b', 2, 10, 1)`)
	if count(t, e, "emp") != 2 {
		t.Fatal("condition should not have held yet")
	}
	// Third insert crosses the threshold: the rule deletes it again.
	mustExec(t, e, `insert into emp values ('c', 3, 10, 1)`)
	if got := count(t, e, "emp"); got != 2 {
		t.Errorf("emp count = %d, want 2", got)
	}
}

func TestNetEffectNoTrigger(t *testing.T) {
	// Insert-then-delete inside one block has empty net effect: no rules
	// trigger (paper §2.2).
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule r when inserted into emp or deleted from emp
		then insert into dept values (999, 999)
		end
	`)
	res := mustExec(t, e, `insert into emp values ('x', 1, 1, 1); delete from emp where emp_no = 1`)
	if len(res.Firings) != 0 {
		t.Errorf("rule fired on empty net effect: %+v", res.Firings)
	}
	if count(t, e, "dept") != 0 {
		t.Error("action ran")
	}
}

func TestUpdatedColumnPredicate(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule watch_salary when updated emp.salary
		then insert into dept values (1, 1)
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 10, 1)`)
	res := mustExec(t, e, `update emp set dept_no = 2`)
	if len(res.Firings) != 0 {
		t.Error("column predicate fired for different column")
	}
	res = mustExec(t, e, `update emp set salary = 11`)
	if len(res.Firings) != 1 {
		t.Error("column predicate did not fire")
	}
	// No-op update (same value) still triggers (paper §2.1).
	res = mustExec(t, e, `update emp set salary = salary`)
	if len(res.Firings) != 1 {
		t.Error("no-op update should still trigger")
	}
}

func TestTransitionTablesSeeOldAndNew(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (name varchar, old_sal float, new_sal float)`)
	mustExec(t, e, `
		create rule log_raises when updated emp.salary
		then insert into log (select n.name, o.salary, n.salary
			from old updated emp.salary o, new updated emp.salary n
			where o.emp_no = n.emp_no)
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 1)`)
	mustExec(t, e, `update emp set salary = salary * 2 where name = 'a'`)
	res, _ := e.QueryString(`select old_sal, new_sal from log`)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 100 || res.Rows[0][1].Float() != 200 {
		t.Errorf("old/new updated: %v", res.Rows)
	}
}

func TestRollbackAction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `insert into emp values ('a', 1, 100, 1)`)
	mustExec(t, e, `
		create rule no_pay_cuts when updated emp.salary
		if exists (select * from new updated emp.salary n, old updated emp.salary o
		           where n.emp_no = o.emp_no and n.salary < o.salary)
		then rollback
	`)
	// A raise is fine.
	res := mustExec(t, e, `update emp set salary = 150`)
	if res.RolledBack {
		t.Fatal("raise rolled back")
	}
	// A cut rolls the whole transaction back.
	res = mustExec(t, e, `update emp set salary = 50; insert into dept values (1,1)`)
	if !res.RolledBack || res.RollbackRule != "no_pay_cuts" {
		t.Fatalf("rollback result: %+v", res)
	}
	q, _ := e.QueryString(`select salary from emp`)
	if q.Rows[0][0].Float() != 150 {
		t.Errorf("salary after rollback = %v, want 150", q.Rows[0][0])
	}
	if count(t, e, "dept") != 0 {
		t.Error("sibling op survived rollback")
	}
}

func TestSelfTriggeringFixpoint(t *testing.T) {
	// A self-triggering rule runs to fixpoint (Section 4.1): repeatedly
	// halve salaries above a threshold.
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule halve when updated emp.salary
		if exists (select * from emp where salary > 100)
		then update emp set salary = salary / 2 where salary > 100
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 1000, 1)`)
	res := mustExec(t, e, `update emp set salary = 800 where emp_no = 1`)
	// 800 → 400 → 200 → 100: three firings.
	if len(res.Firings) != 3 {
		t.Fatalf("firings = %d, want 3 (%v)", len(res.Firings), res.Firings)
	}
	q, _ := e.QueryString(`select salary from emp`)
	if q.Rows[0][0].Float() != 100 {
		t.Errorf("final salary %v", q.Rows[0][0])
	}
}

func TestRunawayGuard(t *testing.T) {
	e := newEmpEngine(t, Config{MaxRuleTransitions: 25})
	mustExec(t, e, `
		create rule diverge when updated emp.salary
		then update emp set salary = salary + 1
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 0, 1)`)
	_, err := e.Exec(`update emp set salary = 1`)
	if err == nil || !errors.Is(err, ErrRunaway) {
		t.Fatalf("expected ErrRunaway, got %v", err)
	}
	// The transaction rolled back entirely.
	q, _ := e.QueryString(`select salary from emp`)
	if q.Rows[0][0].Float() != 0 {
		t.Errorf("salary after runaway rollback = %v, want 0", q.Rows[0][0])
	}
}

func TestRuleConsideredOncePerTransition(t *testing.T) {
	// Two rules triggered, first (by priority) has a false condition: it
	// must be skipped and the other considered — no infinite loop.
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule never when inserted into emp
		if 1 = 2
		then delete from emp
		end;
		create rule log when inserted into emp
		then insert into dept values (1, 1)
		end;
		create rule priority never before log
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 1 || res.Firings[0].Rule != "log" {
		t.Fatalf("firings: %+v", res.Firings)
	}
	// `never` was reconsidered after log's transition (still false): fine.
	if count(t, e, "dept") != 1 {
		t.Error("log action missing")
	}
}

func TestPriorityOrdersFirings(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table trace (step varchar)`)
	mustExec(t, e, `
		create rule second when inserted into emp
		then insert into trace values ('second')
		end;
		create rule first when inserted into emp
		then insert into trace values ('first')
		end;
		create rule priority first before second
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 2 || res.Firings[0].Rule != "first" || res.Firings[1].Rule != "second" {
		t.Fatalf("firing order: %+v", res.Firings)
	}
}

func TestDeactivateRule(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule r when inserted into emp then insert into dept values (1,1) end
	`)
	mustExec(t, e, `deactivate rule r`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 0 {
		t.Error("deactivated rule fired")
	}
	mustExec(t, e, `activate rule r`)
	res = mustExec(t, e, `insert into emp values ('b', 2, 1, 1)`)
	if len(res.Firings) != 1 {
		t.Error("reactivated rule did not fire")
	}
}

func TestDropRule(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule r when inserted into emp then insert into dept values (1,1) end`)
	if got := e.Rules(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Rules() = %v", got)
	}
	mustExec(t, e, `drop rule r`)
	if len(e.Rules()) != 0 {
		t.Error("rule not dropped")
	}
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 0 {
		t.Error("dropped rule fired")
	}
}

func TestDuplicateRuleRejected(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule r when inserted into emp then delete from emp end`)
	if _, err := e.Exec(`create rule r when deleted from emp then delete from dept end`); err == nil {
		t.Error("duplicate rule name accepted")
	}
}

func TestRuleValidationAtDefinition(t *testing.T) {
	e := newEmpEngine(t, Config{})
	// Transition table without corresponding predicate (Section 3
	// restriction).
	_, err := e.Exec(`
		create rule bad when inserted into emp
		then delete from emp where emp_no in (select emp_no from deleted emp)
		end
	`)
	if err == nil || !strings.Contains(err.Error(), "no corresponding") {
		t.Errorf("invalid transition-table reference accepted: %v", err)
	}
	// SELECTED predicate requires the extension to be enabled.
	_, err = e.Exec(`create rule s when selected emp then delete from emp end`)
	if err == nil || !strings.Contains(err.Error(), "select triggering") {
		t.Errorf("selected predicate accepted without extension: %v", err)
	}
}

func TestProcessRulesTriggeringPoint(t *testing.T) {
	// Section 5.3: PROCESS RULES completes the current transition,
	// processes rules, then a new transition begins in the same
	// transaction.
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table trace (n int)`)
	mustExec(t, e, `
		create rule snapshot when inserted into emp
		then insert into trace (select count(*) from inserted emp)
		end
	`)
	mustExec(t, e, `
		insert into emp values ('a', 1, 1, 1);
		insert into emp values ('b', 2, 1, 1);
		process rules;
		insert into emp values ('c', 3, 1, 1)
	`)
	res, _ := e.QueryString(`select n from trace order by n`)
	// First processing sees two inserts; second sees only the third
	// (snapshot's trans-info was reset by its own firing, and the new
	// external segment composes from there).
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Errorf("trace: %v", res.Rows)
	}
}

func TestExternalProcedureAction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	var calls int
	e.RegisterProcedure("audit", func(ctx *ProcContext) error {
		calls++
		res, err := ctx.Query(`select count(*) from inserted emp`)
		if err != nil {
			return err
		}
		n := res.Rows[0][0].Int()
		return ctx.Exec(fmt.Sprintf(`insert into dept values (%d, %d)`, n, n))
	})
	mustExec(t, e, `create rule r when inserted into emp then call audit end`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1), ('b', 2, 1, 1)`)
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	res, _ := e.QueryString(`select dept_no from dept`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("proc saw %v, want inserted-count 2", res.Rows)
	}
	// Unregistered procedure rejected at definition time.
	if _, err := e.Exec(`create rule bad when inserted into emp then call nosuch end`); err == nil {
		t.Error("unregistered procedure accepted")
	}
}

func TestProcedureDMLTriggersOtherRules(t *testing.T) {
	// Section 5.2: "the effect on the database of executing an external
	// procedure still corresponds to a sequence of data manipulation
	// operations" — so it cascades like any transition.
	e := newEmpEngine(t, Config{})
	e.RegisterProcedure("adddept", func(ctx *ProcContext) error {
		return ctx.Exec(`insert into dept values (7, 7)`)
	})
	mustExec(t, e, `create table trace (x int)`)
	mustExec(t, e, `
		create rule r1 when inserted into emp then call adddept end;
		create rule r2 when inserted into dept then insert into trace values (1) end
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 2 {
		t.Fatalf("firings: %+v", res.Firings)
	}
	if count(t, e, "trace") != 1 {
		t.Error("cascade through procedure failed")
	}
}

func TestSelectTriggers(t *testing.T) {
	e := newEmpEngine(t, Config{EnableSelectTriggers: true})
	mustExec(t, e, `create table audit (n int)`)
	mustExec(t, e, `
		create rule watch when selected emp
		then insert into audit (select count(*) from selected emp)
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 10, 1), ('b', 2, 20, 1), ('c', 3, 30, 2)`)
	if count(t, e, "audit") != 0 {
		t.Fatal("insert alone should not satisfy SELECTED")
	}
	// A top-level select inside a transaction triggers the rule; only rows
	// surviving WHERE count as selected.
	res := mustExec(t, e, `select name from emp where dept_no = 1`)
	if len(res.Queries) != 1 || len(res.Queries[0].Rows) != 2 {
		t.Fatalf("query results: %+v", res.Queries)
	}
	q, _ := e.QueryString(`select n from audit`)
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 2 {
		t.Errorf("audit: %v, want one row counting 2 selected tuples", q.Rows)
	}
}

func TestTraceEvents(t *testing.T) {
	e := newEmpEngine(t, Config{})
	var kinds []TraceKind
	e.SetTrace(func(ev TraceEvent) { kinds = append(kinds, ev.Kind) })
	mustExec(t, e, `create rule r when inserted into emp then delete from dept end`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	// After firing, r's trans-info is its own (empty-delete) effect → not
	// triggered again; no further consideration events occur.
	want := []TraceKind{TraceExternalTransition, TraceRuleConsidered, TraceRuleFired, TraceCommit}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds: %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestScopeSinceConsidered(t *testing.T) {
	// Footnote 8: under since-considered scope, a rule whose condition was
	// evaluated loses its pending transition window.
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table trace (x int)`)
	mustExec(t, e, `
		create rule helper when inserted into dept
		then insert into trace values (0)
		end;
		create rule watcher when inserted into emp
		if (select count(*) from trace) > 0
		then insert into trace values (99)
		end;
		create rule priority watcher before helper
	`)
	if err := e.SetRuleScope("watcher", rules.ScopeSinceConsidered); err != nil {
		t.Fatal(err)
	}
	// Insert into emp (watcher considered, condition false → window reset)
	// and dept (helper fires). watcher is NOT reconsidered after helper's
	// transition because its window was reset and helper's transition does
	// not insert into emp.
	res := mustExec(t, e, `insert into emp values ('a',1,1,1); insert into dept values (1,1)`)
	for _, f := range res.Firings {
		if f.Rule == "watcher" {
			t.Errorf("watcher fired despite since-considered reset: %+v", res.Firings)
		}
	}
	// Under the default scope it does fire: the helper transition arrives
	// while emp's insert is still in the watcher's window.
	e2 := newEmpEngine(t, Config{})
	mustExec(t, e2, `create table trace (x int)`)
	mustExec(t, e2, `
		create rule helper when inserted into dept
		then insert into trace values (0)
		end;
		create rule watcher when inserted into emp
		if (select count(*) from trace) > 0
		then insert into trace values (99)
		end;
		create rule priority watcher before helper
	`)
	res = mustExec(t, e2, `insert into emp values ('a',1,1,1); insert into dept values (1,1)`)
	fired := false
	for _, f := range res.Firings {
		if f.Rule == "watcher" {
			fired = true
		}
	}
	if !fired {
		t.Errorf("watcher did not fire under default scope: %+v", res.Firings)
	}
}

func TestScopeSinceTriggered(t *testing.T) {
	// Under since-triggered scope, each transition satisfying the
	// predicate restarts the window, so the rule sees only the latest
	// matching transition, not the composite.
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table trace (n int)`)
	mustExec(t, e, `
		create rule grow when inserted into dept
		if (select count(*) from dept) < 3
		then insert into dept (select dept_no + 1, 0 from inserted dept)
		end;
		create rule watch when inserted into dept
		then insert into trace (select count(*) from inserted dept)
		end;
		create rule priority grow before watch
	`)
	if err := e.SetRuleScope("watch", rules.ScopeSinceTriggered); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `insert into dept values (1, 0)`)
	res, _ := e.QueryString(`select n from trace order by n`)
	// grow fires twice (until 3 rows); watch then sees only the last
	// grow transition: 1 inserted tuple — not the composite 3.
	if len(res.Rows) == 0 {
		t.Fatal("watch never fired")
	}
	last := res.Rows[len(res.Rows)-1][0].Int()
	if last != 1 {
		t.Errorf("since-triggered window saw %d inserts, want 1", last)
	}
}

func TestStoreBeginGuard(t *testing.T) {
	e := newEmpEngine(t, Config{})
	e.Store().Begin()
	if _, err := e.Exec(`insert into emp values ('a',1,1,1)`); err == nil {
		t.Error("transaction inside open store txn accepted")
	}
	e.Store().Rollback()
}

// TestIncomparableJoinErrorParity: an equi-conjunct over incomparable
// column kinds is not a join key, so the default engine reports the same
// comparison error as a Naive one — for a top-level query and inside a
// rule condition alike — rather than a planned join skipping every pair.
func TestIncomparableJoinErrorParity(t *testing.T) {
	const want = "cannot compare VARCHAR with INTEGER"
	for _, naive := range []bool{false, true} {
		e := newEmpEngine(t, Config{Naive: naive})
		mustExec(t, e, `insert into emp values ('a', 1, 10, 1); insert into dept values (1, 1);
			create table audit (n int);
			create rule r when inserted into dept
				if exists (select * from emp e, inserted dept d where e.name = d.dept_no)
				then insert into audit values (1) end`)
		_, err := e.QueryString(`select e.name from emp e, dept d where e.name = d.dept_no`)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("naive=%v query: error %v, want %q", naive, err, want)
		}
		if _, err := e.Exec(`insert into dept values (2, 2)`); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("naive=%v rule condition: error %v, want %q", naive, err, want)
		}
		if n := count(t, e, "dept"); n != 1 {
			t.Errorf("naive=%v: dept has %d rows after the failed transaction, want 1", naive, n)
		}
	}
}
