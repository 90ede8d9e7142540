package engine

import (
	"strings"
	"testing"
)

// TestRuleActionStatementSnapshot: inside a rule action, as outside, a
// statement evaluates against the state it began in: the insert-select
// doubles t exactly and the update's counts see none of its own writes.
func TestRuleActionStatementSnapshot(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, `
		create table go_ (x int);
		create table t (a int);
		create table u (a int);
		insert into t values (1), (2), (3);
		insert into u values (1), (2), (3);
		create rule r when inserted into go_
		then insert into t select * from t;
		     update u set a = (select count(*) from u v where v.a < u.a) + 10
		end;
	`)
	mustExec(t, e, `insert into go_ values (1)`)
	if got := ints(t, e, `select a from t order by a`); got != "1 1 2 2 3 3" {
		t.Errorf("t = %s, want 1 1 2 2 3 3", got)
	}
	if got := ints(t, e, `select a from u order by a`); got != "10 11 12" {
		t.Errorf("u = %s, want 10 11 12", got)
	}
}

// TestRuleActionMissingTable: a rule whose action names a table that does
// not exist is accepted, and fails when it first fires. Its bound action
// is rebound once the table exists: the next firing succeeds.
func TestRuleActionMissingTable(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, `
		create table t (a int);
		create rule r when inserted into t then insert into later select a from inserted t end;
	`)
	_, err := e.Exec(`insert into t values (1)`)
	if err == nil || !strings.Contains(err.Error(), `"later"`) {
		t.Fatalf("first firing: %v, want an error naming table later", err)
	}
	mustExec(t, e, `create table later (a int)`)
	mustExec(t, e, `insert into t values (2)`)
	if got := ints(t, e, `select a from later`); got != "2" {
		t.Fatalf("later = %s, want 2", got)
	}
}

func ints(t *testing.T, e *Engine, src string) string {
	t.Helper()
	res, err := e.QueryString(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].String())
	}
	return strings.Join(out, " ")
}
