package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sopr/internal/sqlparse"
)

// rulesSection returns the rule part of a dump: everything from the first
// CREATE RULE on (rules follow tables, rows and indexes).
func rulesSection(dump string) string {
	if i := strings.Index(dump, "CREATE RULE "); i >= 0 {
		return dump[i:]
	}
	return ""
}

func dumpString(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	if err := e.Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRuleSetSnapshotImmutable: the published rule set is a value. A
// snapshot taken before a rule DDL still renders the old rules, the DDL
// changes Dump, and no DML — rules firing included — touches the rules
// section or the published set.
func TestRuleSetSnapshotImmutable(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule keep when inserted into dept then delete from dept where dept_no < 0 end`)
	ddl := []string{
		`create rule r when inserted into emp then update emp set salary = 0 where salary < 0 end`,
		`create rule priority r before keep`,
		`deactivate rule r`,
		`activate rule r`,
		`alter rule r scope since considered`,
		`alter rule r scope since triggered`,
		`drop rule r`,
	}
	for _, src := range ddl {
		sn := e.snap.Load()
		var old strings.Builder
		if err := dumpRules(&old, sn.rules); err != nil {
			t.Fatal(err)
		}
		before := dumpString(t, e)
		mustExec(t, e, src)
		after := dumpString(t, e)
		if after == before {
			t.Errorf("%s: Dump unchanged", src)
		}
		var again strings.Builder
		if err := dumpRules(&again, sn.rules); err != nil {
			t.Fatal(err)
		}
		if again.String() != old.String() || old.String() != rulesSection(before) {
			t.Errorf("%s: a snapshot taken before the DDL changed its rules:\nbefore:\n%s\nnow:\n%s", src, old.String(), again.String())
		}
	}
	mustExec(t, e, `create rule r when inserted into emp then update emp set salary = 0 where salary < 0 end`)
	set, rulesBefore := e.snap.Load().rules, rulesSection(dumpString(t, e))
	for _, src := range []string{
		`insert into emp values ('a', 1, -5, 1)`,
		`insert into dept values (-1, 1), (2, 2)`,
		`update emp set salary = 10`,
		`delete from emp`,
	} {
		mustExec(t, e, src)
		if e.snap.Load().rules != set {
			t.Errorf("%s: DML replaced the published rule set", src)
		}
		if got := rulesSection(dumpString(t, e)); got != rulesBefore {
			t.Errorf("%s: DML changed the rules section:\n%s", src, got)
		}
	}
}

// TestPublishAllocsIndependentOfRuleCount: publishing shares the immutable
// rule set instead of rendering it, so its cost does not grow with the
// number of rules.
func TestPublishAllocsIndependentOfRuleCount(t *testing.T) {
	allocs := func(n int) float64 {
		e := newEmpEngine(t, Config{})
		for i := 0; i < n; i++ {
			mustExec(t, e, fmt.Sprintf(`create rule r%d when inserted into emp then delete from emp where salary < %d end`, i, -i))
		}
		return testing.AllocsPerRun(50, e.publish)
	}
	if one, many := allocs(1), allocs(201); one != many {
		t.Errorf("publish allocations: %v with 1 rule, %v with 201", one, many)
	}
}

// TestDumpConcurrentWithRuleDDL: lock-free Dump readers race a writer that
// defines, prioritizes, deactivates, alters and drops rules. Every dump must
// be a well-formed script (run under -race to check the sharing).
func TestDumpConcurrentWithRuleDDL(t *testing.T) {
	e := newEmpEngine(t, Config{})
	mustExec(t, e, `create rule base when inserted into emp then delete from emp where salary < 0 end`)
	var wg sync.WaitGroup
	var once sync.Once
	stop := make(chan struct{})
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer halt()
	errs := make(chan error, 2) // one per reader, each sends at most once
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if err := e.Dump(&b); err != nil {
					errs <- err
					return
				}
				if _, err := sqlparse.ParseStatements(b.String()); err != nil {
					errs <- fmt.Errorf("dump does not parse: %v\n%s", err, b.String())
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("r%d", i)
		mustExec(t, e, fmt.Sprintf(`create rule %s when deleted from emp then delete from dept where dept_no = %d end;
			create rule priority %s before base;
			deactivate rule %s;
			alter rule %s scope since considered;
			insert into emp values ('x', %d, 1, 1)`, name, i, name, name, name, i))
		if i%2 == 1 {
			mustExec(t, e, fmt.Sprintf(`drop rule r%d`, i-1))
		}
	}
	halt()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e2 := New(Config{})
	if err := e2.Load(strings.NewReader(dumpString(t, e))); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpString(t, e2), dumpString(t, e); got != want {
		t.Errorf("reloaded dump differs:\n%s\nwant:\n%s", got, want)
	}
}
