package engine

// Additional semantics tests: determinism, strategy behavior, triggering
// points interacting with rollback, scope syntax, and dump fidelity for
// engine-level features.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sopr/internal/rules"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// TestDeterminism — the engine is fully deterministic: the same script run
// on two fresh engines yields byte-identical dumps, across strategies and
// random workloads.
func TestDeterminism(t *testing.T) {
	for _, strat := range []rules.Strategy{rules.StrategyLeastRecent, rules.StrategyMostRecent, rules.StrategyNameOrder} {
		rng := rand.New(rand.NewSource(77))
		script := randomWorkload(rng, 40)
		dump1 := runAndDump(t, strat, script)
		dump2 := runAndDump(t, strat, script)
		if dump1 != dump2 {
			t.Errorf("strategy %v: nondeterministic result", strat)
		}
	}
}

func runAndDump(t *testing.T, strat rules.Strategy, script []string) string {
	t.Helper()
	e := New(Config{Strategy: strat})
	mustExec(t, e, `
		create table t (id int, grp int, val int);
		create table log (id int, grp int)`)
	mustExec(t, e, `
		create rule audit when inserted into t
		then insert into log (select id, grp from inserted t)
		end;
		create rule purge when inserted into log
		if (select count(*) from log) > 30
		then delete from log where id < 10
		end;
		create rule bump when updated t.val
		then update t set grp = grp + 1 where val < 0
		end`)
	for _, stmt := range script {
		if _, err := e.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	var b strings.Builder
	if err := e.Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func randomWorkload(rng *rand.Rand, n int) []string {
	var out []string
	id := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			k := 1 + rng.Intn(5)
			var b strings.Builder
			b.WriteString("insert into t values ")
			for j := 0; j < k; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d, %d)", id, rng.Intn(4), rng.Intn(20)-10)
				id++
			}
			out = append(out, b.String())
		case 1:
			out = append(out, fmt.Sprintf("update t set val = val - %d where grp = %d", rng.Intn(5), rng.Intn(4)))
		default:
			out = append(out, fmt.Sprintf("delete from t where id %% 7 = %d", rng.Intn(7)))
		}
	}
	return out
}

// TestStrategyAffectsOrder — MRU runs cascades depth-first, LRU
// round-robins; with two chained rules this shows as different interleaving
// of a third rule.
func TestStrategyAffectsOrder(t *testing.T) {
	run := func(strat rules.Strategy) []string {
		e := New(Config{Strategy: strat})
		mustExec(t, e, `
			create table t (a int); create table u (a int); create table trace (who varchar)`)
		// Both rules trigger on inserted t; `chain` also re-triggers itself
		// once via u... keep simple: two independent rules on the same event.
		mustExec(t, e, `
			create rule r_a when inserted into t
			then insert into trace values ('a'); insert into u values (1)
			end;
			create rule r_b when inserted into t or inserted into u
			then insert into trace values ('b')
			end`)
		res := mustExec(t, e, `insert into t values (1)`)
		var order []string
		for _, f := range res.Firings {
			order = append(order, f.Rule)
		}
		return order
	}
	lru := run(rules.StrategyLeastRecent)
	// LRU: r_a then r_b (r_a defined first → least recently considered).
	if strings.Join(lru, ",") != "r_a,r_b" {
		t.Errorf("LRU order: %v", lru)
	}
	name := run(rules.StrategyNameOrder)
	if strings.Join(name, ",") != "r_a,r_b" {
		t.Errorf("name order: %v", name)
	}
}

// TestProcessRulesRollbackSpansSegments — a rollback fired after a
// triggering point undoes the entire transaction, including segments whose
// rules already ran.
func TestProcessRulesRollbackSpansSegments(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (x int)`)
	mustExec(t, e, `
		create rule audit when inserted into emp
		then insert into log values (1)
		end;
		create rule guard when inserted into dept
		then rollback
	`)
	res := mustExec(t, e, `
		insert into emp values ('a', 1, 1, 1);
		process rules;
		insert into dept values (1, 1)
	`)
	if !res.RolledBack || res.RollbackRule != "guard" {
		t.Fatalf("result: %+v", res)
	}
	// The first segment's insert and its rule's log entry are both gone.
	if count(t, e, "emp") != 0 || count(t, e, "log") != 0 {
		t.Errorf("segments not rolled back together: emp=%d log=%d",
			count(t, e, "emp"), count(t, e, "log"))
	}
	// The audit rule did fire before the rollback.
	if len(res.Firings) != 1 || res.Firings[0].Rule != "audit" {
		t.Errorf("firings: %+v", res.Firings)
	}
}

// TestScopeSyntaxAndDump — the SCOPE SINCE clause sets the footnote 8
// semantics and survives dump/load.
func TestScopeSyntaxAndDump(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule w scope since considered when inserted into emp
		then insert into dept values (1, 1)
		end`)
	r, ok := e.Rule("w")
	if !ok || r.Scope != rules.ScopeSinceConsidered {
		t.Fatalf("scope: %+v", r)
	}
	var b strings.Builder
	if err := e.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "SCOPE SINCE CONSIDERED") {
		t.Errorf("dump lost scope:\n%s", b.String())
	}
	e2 := New(Config{})
	if err := e2.Load(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	r2, ok := e2.Rule("w")
	if !ok || r2.Scope != rules.ScopeSinceConsidered {
		t.Errorf("scope after load: %+v", r2)
	}
}

// TestMultipleRollbackRulesFirstWins — with two rollback rules triggered,
// only the first (by priority) fires; the transaction ends immediately.
func TestMultipleRollbackRulesFirstWins(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule g1 when inserted into emp then rollback;
		create rule g2 when inserted into emp then rollback;
		create rule priority g2 before g1
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if !res.RolledBack || res.RollbackRule != "g2" {
		t.Errorf("result: %+v", res)
	}
	if len(res.Firings) != 0 {
		t.Errorf("rollback is not a firing: %+v", res.Firings)
	}
}

// TestRollbackConditionFalseDoesNotRollBack — a rollback rule whose
// condition fails lets the transaction commit.
func TestRollbackConditionFalseDoesNotRollBack(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule guard when inserted into emp
		if exists (select * from inserted emp where salary < 0)
		then rollback
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 100, 1)`)
	if res.RolledBack {
		t.Error("rolled back with false condition")
	}
	if count(t, e, "emp") != 1 {
		t.Error("insert lost")
	}
}

// TestEmptyExternalBlockNoRules — a transaction whose net effect is empty
// considers no rules at all.
func TestEmptyExternalBlockNoRules(t *testing.T) {
	e := newEmpEngine(t, Config{})
	considered := 0
	e.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceRuleConsidered {
			considered++
		}
	})
	mustExec(t, e, `create rule r when inserted into emp or deleted from emp or updated emp then rollback`)
	mustExec(t, e, `delete from emp where emp_no = 42`) // matches nothing
	if considered != 0 {
		t.Errorf("rules considered on empty effect: %d", considered)
	}
}

// TestCascadeThroughThreeRules — A→B→C chains across tables, each firing
// exactly once, demonstrating composite-effect bookkeeping across a chain.
func TestCascadeThroughThreeRules(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, `
		create table a (x int); create table b (x int);
		create table c (x int); create table d (x int)`)
	mustExec(t, e, `
		create rule ab when inserted into a then insert into b (select x + 1 from inserted a) end;
		create rule bc when inserted into b then insert into c (select x + 1 from inserted b) end;
		create rule cd when inserted into c then insert into d (select x + 1 from inserted c) end
	`)
	res := mustExec(t, e, `insert into a values (0)`)
	if len(res.Firings) != 3 {
		t.Fatalf("firings: %+v", res.Firings)
	}
	q, _ := e.QueryString(`select x from d`)
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 3 {
		t.Errorf("chain result: %v", q.Rows)
	}
}

// TestConditionErrorAbortsTransaction — a runtime error inside a rule
// condition rolls back the transaction and surfaces the rule name.
func TestConditionErrorAbortsTransaction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule bad when inserted into emp
		if (select salary / 0 from inserted emp) > 1
		then rollback
	`)
	_, err := e.Exec(`insert into emp values ('a', 1, 1, 1)`)
	if err == nil || !strings.Contains(err.Error(), `rule "bad" condition`) {
		t.Fatalf("error: %v", err)
	}
	if count(t, e, "emp") != 0 {
		t.Error("failed txn not rolled back")
	}
}

// TestActionErrorAbortsTransaction — same for action errors.
func TestActionErrorAbortsTransaction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule bad when inserted into emp
		then update emp set salary = salary / 0
		end
	`)
	_, err := e.Exec(`insert into emp values ('a', 1, 1, 1)`)
	if err == nil || !strings.Contains(err.Error(), `rule "bad" action`) {
		t.Fatalf("error: %v", err)
	}
	if count(t, e, "emp") != 0 {
		t.Error("failed txn not rolled back")
	}
}

// TestEngineStatsDirect — the counters (also covered via the public API).
func TestEngineStatsDirect(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	s := e.Stats()
	if s.Committed != 1 || s.ExternalTransitions != 1 {
		t.Errorf("stats: %+v", s)
	}
}

// TestProcContextErrors — external procedures get clean errors for
// non-DML Exec and non-SELECT Query.
func TestProcContextErrors(t *testing.T) {
	e := newEmpEngine(t, Config{})
	var execErr, queryErr, parseErr error
	e.RegisterProcedure("p", func(ctx *ProcContext) error {
		execErr = ctx.Exec(`drop table emp`)
		_, queryErr = ctx.Query(`insert into dept values (1,1)`)
		_, parseErr = ctx.Query(`not sql`)
		return nil
	})
	mustExec(t, e, `create rule r when inserted into emp then call p end`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if execErr == nil || !strings.Contains(execErr.Error(), "data manipulation") {
		t.Errorf("Exec non-DML: %v", execErr)
	}
	if queryErr == nil || !strings.Contains(queryErr.Error(), "SELECT") {
		t.Errorf("Query non-SELECT: %v", queryErr)
	}
	if parseErr == nil {
		t.Error("Query parse error swallowed")
	}
	// Parse errors in ProcContext.Exec too.
	e.RegisterProcedure("p2", func(ctx *ProcContext) error { return ctx.Exec(`bogus`) })
	mustExec(t, e, `create rule r2 when deleted from emp then call p2 end`)
	if _, err := e.Exec(`delete from emp`); err == nil {
		t.Error("proc parse error swallowed")
	}
}

// TestSelectTriggerCondition — a SELECTED-triggered rule whose condition
// inspects the `selected` transition table (authorization-style check, the
// §5.1 motivation).
func TestSelectTriggerCondition(t *testing.T) {
	e := newEmpEngine(t, Config{EnableSelectTriggers: true})
	mustExec(t, e, `create table alerts (n int)`)
	mustExec(t, e, `
		create rule snoop when selected emp
		if exists (select * from selected emp where salary > 100000)
		then insert into alerts (select count(*) from selected emp)
		end
	`)
	mustExec(t, e, `insert into emp values ('ceo', 1, 500000, 0), ('ic', 2, 90000, 1)`)
	// Reading only the modest salary does not alert.
	mustExec(t, e, `select name from emp where emp_no = 2`)
	if count(t, e, "alerts") != 0 {
		t.Fatal("alert on non-sensitive read")
	}
	// A scan that touches the executive row alerts, counting all selected
	// tuples.
	mustExec(t, e, `select name from emp`)
	q, _ := e.QueryString(`select n from alerts`)
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 2 {
		t.Errorf("alerts: %v", q.Rows)
	}
}

// TestSelectedTableUnderSubqueryMemo — a closed subquery is evaluated once
// per statement as shipped and once per outer row under Naive; the
// `selected` transition table it contributes to (Section 5.1) is the same
// either way, because recording a selected tuple twice is recording it
// once.
func TestSelectedTableUnderSubqueryMemo(t *testing.T) {
	run := func(naive bool) string {
		e := newEmpEngine(t, Config{EnableSelectTriggers: true, Naive: naive})
		mustExec(t, e, `create table seen (name varchar)`)
		mustExec(t, e, `
			create rule snoop when selected emp
			then insert into seen (select name from selected emp)
			end
		`)
		mustExec(t, e, `insert into emp values ('ceo', 1, 500000, 0), ('vp', 2, 200000, 1), ('ic', 3, 90000, 2);
			insert into dept values (0, 1), (1, 2), (2, 3), (3, 9)`)
		res := mustExec(t, e, `
			select dept_no from dept where mgr_no in (select emp_no from emp where salary > 100000);
			update dept set mgr_no = mgr_no where dept_no in (select dept_no from emp where salary < 100000)`)
		out := fmt.Sprint(res.Firings, names(t, e, `select name from seen order by name`))
		for _, q := range res.Queries {
			out += "\n" + q.String()
		}
		return out
	}
	if got, want := run(false), run(true); got != want {
		t.Errorf("selected table diverges from Naive:\n%s\nnaive:\n%s", got, want)
	}
}

// TestProcessRulesAlone — a bare triggering point is a no-op transaction.
func TestProcessRulesAlone(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule r when inserted into emp then delete from dept end`)
	res := mustExec(t, e, `process rules`)
	if res.RolledBack || len(res.Firings) != 0 {
		t.Errorf("bare PROCESS RULES: %+v", res)
	}
	// Leading and trailing triggering points around real work.
	res = mustExec(t, e, `process rules; insert into emp values ('a',1,1,1); process rules`)
	if len(res.Firings) != 1 {
		t.Errorf("firings: %+v", res.Firings)
	}
}

// TestDumpDuringTransactionSeesCommittedState — Dump reads the published
// snapshot, so mid-transaction state is never serialized: a dump taken
// while a transaction is open is byte-identical to one taken before it
// began, uncommitted changes and all.
func TestDumpDuringTransactionSeesCommittedState(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	var before strings.Builder
	if err := e.Dump(&before); err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Begin(); err != nil {
		t.Fatal(err)
	}
	defer e.Store().Rollback()
	row := storage.Row{value.NewString("b"), value.NewInt(2), value.NewInt(2), value.NewInt(2)}
	if _, err := e.Store().Insert("emp", row); err != nil {
		t.Fatal(err)
	}
	var during strings.Builder
	if err := e.Dump(&during); err != nil {
		t.Fatalf("dump during transaction: %v", err)
	}
	if during.String() != before.String() {
		t.Errorf("dump during transaction differs from committed state:\nbefore:\n%s\nduring:\n%s", before.String(), during.String())
	}
}

// TestEmptyTransitionTableForOtherPred — a rule with a disjunctive trigger
// may reference all its transition tables; the ones whose predicate did not
// fire are simply empty.
func TestEmptyTransitionTableForOtherPred(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (ins int, del int)`)
	mustExec(t, e, `
		create rule both when inserted into emp or deleted from emp
		then insert into log
		     (select (select count(*) from inserted emp), (select count(*) from deleted emp))
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	q, _ := e.QueryString(`select ins, del from log`)
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 1 || q.Rows[0][1].Int() != 0 {
		t.Errorf("counts: %v", q.Rows)
	}
}

// TestTriggerPermanence — the introduction's "Trigger permanence" question:
// "If several rules are triggered simultaneously, what happens if execution
// of one rule's action negates another rule's condition?" Section 4.2's
// answer: a rule remains triggered "as long as transition T2 does not undo
// the changes that initially caused [it] to be triggered" — i.e. triggering
// is re-evaluated against the composite net effect.
func TestTriggerPermanence(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (x int)`)
	// `undo` deletes every newly inserted employee; `react` also watches
	// inserts but runs second. After undo's transition, the composite
	// effect for react is insert-then-delete = nothing, so react must not
	// run even though it was triggered in the intermediate state.
	mustExec(t, e, `
		create rule undo when inserted into emp
		then delete from emp where emp_no in (select emp_no from inserted emp)
		end;
		create rule react when inserted into emp
		then insert into log values (1)
		end;
		create rule priority undo before react
	`)
	res := mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 1 || res.Firings[0].Rule != "undo" {
		t.Fatalf("firings: %+v", res.Firings)
	}
	if count(t, e, "log") != 0 {
		t.Error("react ran although its triggering changes were undone")
	}

	// Conversely, with the priority reversed react runs first (trigger
	// still standing), then undo cleans up.
	e2 := newEmpEngine(t, Config{})
	mustExec(t, e2, `create table log (x int)`)
	mustExec(t, e2, `
		create rule undo when inserted into emp
		then delete from emp where emp_no in (select emp_no from inserted emp)
		end;
		create rule react when inserted into emp
		then insert into log values (1)
		end;
		create rule priority react before undo
	`)
	res = mustExec(t, e2, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Firings) != 2 {
		t.Fatalf("firings: %+v", res.Firings)
	}
	if count(t, e2, "log") != 1 {
		t.Error("react should have run before undo")
	}
}

// TestConditionNegatedByEarlierRule — the condition (not just the trigger)
// is also evaluated against the state after earlier rules ran.
func TestConditionNegatedByEarlierRule(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (x int)`)
	mustExec(t, e, `
		create rule drain when inserted into emp
		then update emp set salary = 0
		end;
		create rule rich when inserted into emp
		if exists (select * from emp where salary > 100)
		then insert into log values (1)
		end;
		create rule priority drain before rich
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 500, 1)`)
	if count(t, e, "log") != 0 {
		t.Error("rich ran although drain negated its condition")
	}
}

// TestRuleTimeout — footnote 7's "run-time detection using a timeout
// mechanism": a divergent rule set is stopped by wall-clock deadline and
// the transaction rolls back.
func TestRuleTimeout(t *testing.T) {
	e := newEmpEngine(t, Config{RuleTimeout: 20 * time.Millisecond, MaxRuleTransitions: 1 << 30})
	mustExec(t, e, `
		create rule diverge when updated emp.salary
		then update emp set salary = salary + 1
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 0, 1)`)
	_, err := e.Exec(`update emp set salary = 1`)
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	q, _ := e.QueryString(`select salary from emp`)
	if q.Rows[0][0].Float() != 0 {
		t.Errorf("timeout txn not rolled back: %v", q.Rows[0][0])
	}
}

// TestWF89aBooleanCombination — Section 3 notes that "it is possible to
// use the condition part of a rule to obtain the effect of arbitrary
// boolean combinations of basic transition predicates" [WF89a]. This rule
// fires only when the transition BOTH inserted into emp AND deleted from
// emp (conjunction — not expressible as a transition predicate, which is a
// disjunction).
func TestWF89aBooleanCombination(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create table log (x int)`)
	mustExec(t, e, `
		create rule churn when inserted into emp or deleted from emp
		if exists (select * from inserted emp)
		   and exists (select * from deleted emp)
		then insert into log values (1)
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1), ('b', 2, 1, 1)`)
	if count(t, e, "log") != 0 {
		t.Fatal("insert-only transition fired the conjunction")
	}
	mustExec(t, e, `delete from emp where emp_no = 1`)
	if count(t, e, "log") != 0 {
		t.Fatal("delete-only transition fired the conjunction")
	}
	mustExec(t, e, `insert into emp values ('c', 3, 1, 1); delete from emp where emp_no = 2`)
	if count(t, e, "log") != 1 {
		t.Error("insert+delete transition did not fire the conjunction")
	}
}

// TestRetrievalAction — Section 5.1's "data retrieval in rules' actions":
// a rule can SELECT, and the result set is delivered with the transaction
// result (the paper's example: "a rule that automatically delivers a
// summary of employee data whenever salaries are updated").
func TestRetrievalAction(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `
		create rule summary when updated emp.salary
		then select name, salary from new updated emp.salary order by name
		end
	`)
	mustExec(t, e, `insert into emp values ('a', 1, 100, 1), ('b', 2, 200, 1)`)
	res := mustExec(t, e, `update emp set salary = salary + 10`)
	if len(res.Queries) != 1 {
		t.Fatalf("delivered results: %d", len(res.Queries))
	}
	q := res.Queries[0]
	if len(q.Rows) != 2 || q.Rows[0][1].Float() != 110 || q.Rows[1][1].Float() != 210 {
		t.Errorf("summary rows: %v", q.Rows)
	}
	// The retrieval-only action creates an empty transition: the rule must
	// not re-trigger itself.
	if len(res.Firings) != 1 {
		t.Errorf("firings: %+v", res.Firings)
	}
	// Mixed action: retrieval plus DML still cascades normally.
	e2 := newEmpEngine(t, Config{})
	mustExec(t, e2, `
		create rule mixed when inserted into emp
		then select count(*) from inserted emp;
		     insert into dept values (1, 1)
		end
	`)
	res = mustExec(t, e2, `insert into emp values ('a', 1, 1, 1)`)
	if len(res.Queries) != 1 || res.Queries[0].Rows[0][0].Int() != 1 {
		t.Errorf("mixed action query: %+v", res.Queries)
	}
	if count(t, e2, "dept") != 1 {
		t.Error("mixed action DML missing")
	}
}

// TestUpdateWholeTablePredicate — `updated t` (no column) matches updates
// to any column.
func TestUpdateWholeTablePredicate(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule r when updated emp then insert into dept values (1,1) end`)
	mustExec(t, e, `insert into emp values ('a', 1, 1, 1)`)
	res := mustExec(t, e, `update emp set name = 'b'`)
	if len(res.Firings) != 1 {
		t.Errorf("whole-table update predicate: %+v", res.Firings)
	}
	res = mustExec(t, e, `update emp set salary = 5`)
	if len(res.Firings) != 1 {
		t.Errorf("second column: %+v", res.Firings)
	}
}
