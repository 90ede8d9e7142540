package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sopr/internal/rules"
)

// Tests of Figure 1's rule index (rules.Set.Watchers) and lazy trans-info.
// Each scenario runs on two engines: one with the index, and a
// FullTransInfo twin, whose rules keep every table and so are visited on
// every transition (the index has nothing to skip). After every step the
// two must agree on the result, the firings, the considered rules and
// their outcomes, each rule's trans-info restricted to its own predicate
// tables, and the dump.

const indexSchema = `
	create table t (a int);
	create table u (a int);
	create table w (a int);
	create table log (msg varchar)`

type indexTwin struct {
	idx, full *Engine
	events    [2][]TraceEvent
}

func newIndexTwin(t *testing.T, cfg Config, setup string) *indexTwin {
	t.Helper()
	tw := &indexTwin{}
	for k, full := range []bool{false, true} {
		c := cfg
		c.FullTransInfo = full
		e := New(c)
		mustExec(t, e, indexSchema)
		mustExec(t, e, setup)
		e.SetTrace(func(ev TraceEvent) {
			if ev.Kind == TraceRuleConsidered {
				ev.Effect = "" // trans-info summaries differ in the twin
			}
			tw.events[k] = append(tw.events[k], ev)
		})
		if full {
			tw.full = e
		} else {
			tw.idx = e
		}
	}
	return tw
}

// step executes src on both engines, compares them, and returns the
// indexed engine's result and error.
func (tw *indexTwin) step(t *testing.T, src string) (*TxnResult, error) {
	t.Helper()
	tw.events = [2][]TraceEvent{}
	res, err := tw.idx.Exec(src)
	fres, ferr := tw.full.Exec(src)
	if fmt.Sprint(err) != fmt.Sprint(ferr) {
		t.Fatalf("%s: error %v, FullTransInfo twin %v", src, err, ferr)
	}
	if !reflect.DeepEqual(res.Firings, fres.Firings) || res.RolledBack != fres.RolledBack {
		t.Fatalf("%s: firings %v (rolled back %v), twin %v (%v)", src, res.Firings, res.RolledBack, fres.Firings, fres.RolledBack)
	}
	if !reflect.DeepEqual(tw.events[0], tw.events[1]) {
		t.Fatalf("%s: trace\n%v\ntwin\n%v", src, tw.events[0], tw.events[1])
	}
	for i := 0; i < tw.idx.rules.Len(); i++ {
		r := tw.idx.rules.Rule(i)
		j, _ := tw.full.rules.Ordinal(r.Name)
		if got, want := keptTrans(tw.idx, i, r), keptTrans(tw.full, j, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rule %s trans-info %v, twin %v", src, r.Name, got, want)
		}
	}
	if got, want := dumpString(t, tw.idx), dumpString(t, tw.full); got != want {
		t.Fatalf("%s: dump\n%s\ntwin\n%s", src, got, want)
	}
	return res, err
}

// keptTrans returns rule ordinal i's trans-info restricted to r's
// predicate tables; nil trans-info is empty.
func keptTrans(e *Engine, i int, r *rules.Rule) *rules.Effect {
	trans := e.run[i].trans
	if trans == nil {
		trans = rules.NewEffect()
	}
	return trans.CloneFiltered(r.Keep)
}

func (tw *indexTwin) mustStep(t *testing.T, src string) *TxnResult {
	t.Helper()
	res, err := tw.step(t, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func (tw *indexTwin) logged(t *testing.T) []string {
	t.Helper()
	return names(t, tw.idx, `select msg from log order by msg`)
}

// TestRuleIndexComposesOncePerTransition: a rule watching t and u must
// compose a transition touching both exactly once. Composing twice is not
// idempotent — the insert-then-delete of a t tuple would turn into a
// delete, and `seen` would log it.
func TestRuleIndexComposesOncePerTransition(t *testing.T) {
	tw := newIndexTwin(t, Config{}, `
		create rule mover when inserted into t
		then insert into u (select a from inserted t where a < 0);
		     delete from t where a < 0
		end;
		create rule seen when inserted into t or deleted from t or inserted into u
		if exists (select * from deleted t)
		then insert into log values ('deleted t')
		end;
		create rule priority mover before seen`)
	res := tw.mustStep(t, `insert into t values (-1), (2)`)
	if len(res.Firings) != 1 || res.Firings[0].Rule != "mover" {
		t.Fatalf("firings %v, want mover once", res.Firings)
	}
	if got := tw.logged(t); len(got) != 0 {
		t.Fatalf("seen observed a deletion: %v", got)
	}
	// A real deletion of a pre-existing t tuple is seen.
	tw.mustStep(t, `delete from t where a = 2`)
	if got := tw.logged(t); len(got) != 1 {
		t.Fatalf("log %v, want one deletion", got)
	}
}

// TestRuleIndexScopes: the footnote 8 scopes restart a rule's window on
// the rules the index visits exactly as on the twin.
func TestRuleIndexScopes(t *testing.T) {
	tw := newIndexTwin(t, Config{}, `
		create rule feed when inserted into t
		then insert into u (select a + 1 from inserted t where a < 3)
		end;
		create rule back when inserted into u
		then insert into t (select a from inserted u)
		end;
		create rule trig scope since triggered when inserted into u
		then insert into log (select 'trig' from inserted u)
		end;
		create rule cons scope since considered when inserted into t or inserted into w
		if (select count(*) from inserted t) > 2
		then insert into log values ('cons')
		end;
		create rule priority trig before back;
		create rule priority cons before feed`)
	tw.mustStep(t, `insert into t values (0); insert into w values (9)`)
	tw.mustStep(t, `insert into t values (1), (2), (3)`)
	if len(tw.logged(t)) == 0 {
		t.Fatal("no scope rule fired")
	}
}

// TestRuleIndexProcessRules: PROCESS RULES splits a block into external
// transitions that compose into the touched rules like rule transitions.
func TestRuleIndexProcessRules(t *testing.T) {
	tw := newIndexTwin(t, Config{}, `
		create rule both when inserted into t or deleted from u
		then insert into log (select 'both' from inserted t)
		end;
		create rule onlyu when inserted into u
		if (select count(*) from inserted u) > 1
		then delete from u where a = 0
		end`)
	tw.mustStep(t, `insert into u values (0), (5)`)
	tw.mustStep(t, `insert into t values (1); process rules; insert into u values (7), (8); process rules; delete from u where a = 5; insert into t values (2)`)
	tw.mustStep(t, `process rules; process rules`)
}

// TestRuleIndexRuleDDL: rule DDL between transactions shifts ordinals and
// rebuilds the index; no trans-info or rejection may leak into the next
// transaction under a rule's new ordinal.
func TestRuleIndexRuleDDL(t *testing.T) {
	tw := newIndexTwin(t, Config{}, `
		create rule r1 when inserted into t then insert into log values ('r1') end;
		create rule r2 when inserted into u if false then insert into log values ('r2') end;
		create rule r3 when inserted into t or inserted into u
		if exists (select * from inserted t)
		then insert into log values ('r3')
		end`)
	tw.mustStep(t, `insert into t values (1); insert into u values (1)`)
	tw.mustStep(t, `drop rule r1`)
	// r3 is now ordinal 1: a u-only transaction must not see last
	// transaction's t insertion.
	tw.mustStep(t, `insert into u values (2)`)
	tw.mustStep(t, `create rule r0 when inserted into u then insert into log values ('r0') end`)
	tw.mustStep(t, `insert into u values (3)`)
	tw.mustStep(t, `insert into t values (4)`)
	if got, want := strings.Join(tw.logged(t), ","), "r0,r1,r3,r3"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestRuleIndexReactivation: a deactivated rule gets no trans-info; after
// ACTIVATE it sees only the transactions that follow.
func TestRuleIndexReactivation(t *testing.T) {
	tw := newIndexTwin(t, Config{}, `
		create rule r when inserted into t or inserted into u
		then insert into log (select 'r' from inserted t)
		end`)
	tw.mustStep(t, `deactivate rule r`)
	tw.mustStep(t, `insert into t values (1)`)
	tw.mustStep(t, `activate rule r`)
	tw.mustStep(t, `insert into u values (1)`)
	if got := tw.logged(t); len(got) != 0 {
		t.Fatalf("reactivated rule saw a transition from while it was inactive: %v", got)
	}
	tw.mustStep(t, `insert into t values (2), (3)`)
	if got := tw.logged(t); len(got) != 2 {
		t.Fatalf("log %v, want two rows", got)
	}
}

// TestRuleIndexAfterFailure: a transaction rolled back by a rule, or by an
// error mid-processing, leaves trans-info behind; the next transaction
// must start from empty.
func TestRuleIndexAfterFailure(t *testing.T) {
	tw := newIndexTwin(t, Config{MaxRuleTransitions: 5}, `
		create rule veto when inserted into t if exists (select * from inserted t where a = 99) then rollback;
		create rule loop when inserted into w then insert into w (select a + 1 from inserted w) end;
		create rule watch when inserted into t or inserted into u or inserted into w
		if exists (select * from inserted t) or exists (select * from inserted w)
		then insert into log values ('watch')
		end;
		create rule priority veto before watch;
		create rule priority loop before watch`)
	if res := tw.mustStep(t, `insert into t values (99)`); !res.RolledBack {
		t.Fatal("veto did not roll back")
	}
	tw.mustStep(t, `insert into u values (1)`)
	if _, err := tw.step(t, `insert into w values (0)`); err == nil {
		t.Fatal("runaway loop was not stopped")
	}
	tw.mustStep(t, `insert into u values (2)`)
	if got := tw.logged(t); len(got) != 0 {
		t.Fatalf("watch saw a failed transaction's transition: %v", got)
	}
}

// TestRuleIndexSelectTriggers: `selected t` (Section 5.1) indexes the rule
// under t, and the S component reaches it like any other change.
func TestRuleIndexSelectTriggers(t *testing.T) {
	tw := newIndexTwin(t, Config{EnableSelectTriggers: true}, `
		create rule audit when selected t or inserted into u
		then insert into log (select 'audit' from selected t)
		end`)
	tw.mustStep(t, `insert into t values (1), (2)`)
	tw.mustStep(t, `select a from t where a = 1; insert into u values (1)`)
	tw.mustStep(t, `select a from u`)
	if got := tw.logged(t); len(got) != 1 {
		t.Fatalf("log %v, want one audit row", got)
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
