package engine

import (
	"fmt"
	"strings"
	"testing"
)

// Tests of Figure 1's rule index (rules.Set.Watchers) and lazy trans-info
// across what a generated workload cannot express: rule DDL, ACTIVATE and
// select triggers. Each pins the exact firings of every step and the final
// log rows. The index scenarios that gen.Workload can express run against
// the reference oracle in internal/oracle (the index_* targeted
// workloads).

// indexStep is one transaction and the rules it must fire, in order.
type indexStep struct {
	src, fired string
}

// runIndexSteps creates tables t, u, w and log(msg), runs setup, then each
// step, and returns the log rows sorted.
func runIndexSteps(t *testing.T, cfg Config, setup string, steps []indexStep) []string {
	t.Helper()
	e := New(cfg)
	mustExec(t, e, `create table t (a int); create table u (a int); create table w (a int); create table log (msg varchar)`)
	mustExec(t, e, setup)
	for _, s := range steps {
		var fired []string
		for _, f := range mustExec(t, e, s.src).Firings {
			fired = append(fired, f.Rule)
		}
		if got := strings.Join(fired, ","); got != s.fired {
			t.Fatalf("%s: fired [%s], want [%s]", s.src, got, s.fired)
		}
	}
	return names(t, e, `select msg from log order by msg`)
}

// TestRuleIndexRuleDDL: rule DDL between transactions shifts ordinals and
// rebuilds the index; no trans-info or rejection may leak into the next
// transaction under a rule's new ordinal.
func TestRuleIndexRuleDDL(t *testing.T) {
	got := runIndexSteps(t, Config{}, `
		create rule r1 when inserted into t then insert into log values ('r1') end;
		create rule r2 when inserted into u if false then insert into log values ('r2') end;
		create rule r3 when inserted into t or inserted into u
		if exists (select * from inserted t)
		then insert into log values ('r3')
		end`, []indexStep{
		{`insert into t values (1); insert into u values (1)`, "r1,r3"},
		{`drop rule r1`, ""},
		// r3 is now ordinal 1: a u-only transaction must not see the last
		// transaction's t insertion.
		{`insert into u values (2)`, ""},
		{`create rule r0 when inserted into u then insert into log values ('r0') end`, ""},
		{`insert into u values (3)`, "r0"},
		{`insert into t values (4)`, "r3"},
	})
	if got, want := strings.Join(got, ","), "r0,r1,r3,r3"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestRuleIndexReactivation: a deactivated rule gets no trans-info; after
// ACTIVATE it sees only the transactions that follow.
func TestRuleIndexReactivation(t *testing.T) {
	got := runIndexSteps(t, Config{}, `
		create rule r when inserted into t or inserted into u
		then insert into log (select 'r' from inserted t)
		end`, []indexStep{
		{`deactivate rule r`, ""},
		{`insert into t values (1)`, ""},
		{`activate rule r`, ""},
		// r fires on u but must not see t's row from while it was inactive.
		{`insert into u values (1)`, "r"},
		{`insert into t values (2), (3)`, "r"},
	})
	if got, want := strings.Join(got, ","), "r,r"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestRuleIndexSelectTriggers: `selected t` (Section 5.1) indexes the rule
// under t, and the S component reaches it like any other change.
func TestRuleIndexSelectTriggers(t *testing.T) {
	got := runIndexSteps(t, Config{EnableSelectTriggers: true}, `
		create rule audit when selected t or inserted into u
		then insert into log (select 'audit' from selected t)
		end`, []indexStep{
		{`insert into t values (1), (2)`, ""},
		{`select a from t where a = 1; insert into u values (1)`, "audit"},
		{`select a from u`, ""},
	})
	if got, want := strings.Join(got, ","), "audit"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestDropTableRestrict: a table that a rule names — in a predicate, its
// condition or its action — cannot be dropped while the rule exists.
// Dropping it used to break every later transaction (the rule's `updated
// t.c` predicate looked up a table or column that no longer existed).
func TestDropTableRestrict(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, `create table t (c int); create table u (x int); create table v (y int)`)
	mustExec(t, e, `create rule r when updated t.c then delete from u end`)
	mustExec(t, e, `create rule s when inserted into u if exists (select * from v) then update u set x = 0 end`)
	for table, rule := range map[string]string{"t": "r", "u": "r", "v": "s"} {
		_, err := e.Exec(`drop table ` + table)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rule %q", rule)) {
			t.Errorf("drop table %s: %v, want a refusal naming rule %s", table, err, rule)
		}
	}
	mustExec(t, e, `insert into u values (1)`)
	mustExec(t, e, `drop rule r; drop rule s; drop table t; create table t (d int)`)
	mustExec(t, e, `insert into u values (2); insert into t values (3)`)
}
