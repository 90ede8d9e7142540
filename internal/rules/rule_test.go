package rules

import (
	"strings"
	"testing"

	"sopr/internal/catalog"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	emp, err := catalog.NewTable("emp", []catalog.Column{
		{Name: "name", Type: value.KindString},
		{Name: "emp_no", Type: value.KindInt},
		{Name: "salary", Type: value.KindFloat},
		{Name: "dept_no", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	dept, err := catalog.NewTable("dept", []catalog.Column{
		{Name: "dept_no", Type: value.KindInt},
		{Name: "mgr_no", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(emp); err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(dept); err != nil {
		t.Fatal(err)
	}
	return cat
}

func pred(op sqlast.TransPredOp, table, col string) sqlast.TransPred {
	return sqlast.TransPred{Op: op, Table: table, Column: col}
}

func TestEffectSatisfies(t *testing.T) {
	cat := testCatalog(t)
	e := NewEffect()
	e.AddOp(insOp("emp", 1))
	e.AddOp(updOp("dept", 5, row(1, 2), 1)) // dept.mgr_no is column 1

	cases := []struct {
		p    sqlast.TransPred
		want bool
	}{
		{pred(sqlast.PredInserted, "emp", ""), true},
		{pred(sqlast.PredInserted, "dept", ""), false},
		{pred(sqlast.PredDeleted, "emp", ""), false},
		{pred(sqlast.PredUpdated, "dept", ""), true},
		{pred(sqlast.PredUpdated, "dept", "mgr_no"), true},
		{pred(sqlast.PredUpdated, "dept", "dept_no"), false},
		{pred(sqlast.PredUpdated, "emp", ""), false},
		{pred(sqlast.PredSelected, "emp", ""), false},
	}
	for _, c := range cases {
		got, err := EffectSatisfies(e, []sqlast.TransPred{c.p}, cat)
		if err != nil {
			t.Errorf("%s: %v", c.p, err)
			continue
		}
		if got != c.want {
			t.Errorf("EffectSatisfies(%s) = %v, want %v", c.p, got, c.want)
		}
	}
	// Disjunction: any satisfied basic predicate triggers.
	got, err := EffectSatisfies(e, []sqlast.TransPred{
		pred(sqlast.PredDeleted, "emp", ""),
		pred(sqlast.PredInserted, "emp", ""),
	}, cat)
	if err != nil || !got {
		t.Errorf("disjunction: %v, %v", got, err)
	}
	// Deleted predicate against a delete effect.
	e2 := NewEffect()
	e2.AddOp(delOp("emp", storage.Handle(9), row(0, 0, 0, 0)))
	got, _ = EffectSatisfies(e2, []sqlast.TransPred{pred(sqlast.PredDeleted, "emp", "")}, cat)
	if !got {
		t.Error("deleted predicate failed")
	}
	// Selected predicate (Section 5.1).
	e3 := NewEffect()
	e3.AddSelected("emp", []storage.Handle{4})
	got, _ = EffectSatisfies(e3, []sqlast.TransPred{pred(sqlast.PredSelected, "emp", "")}, cat)
	if !got {
		t.Error("selected predicate failed")
	}
	// Bad column errors.
	if _, err := EffectSatisfies(e, []sqlast.TransPred{pred(sqlast.PredUpdated, "dept", "nosuch")}, cat); err == nil {
		t.Error("bad predicate column accepted")
	}
}

func TestRuleTriggered(t *testing.T) {
	cat := testCatalog(t)
	r := &Rule{Name: "r", Preds: []sqlast.TransPred{pred(sqlast.PredInserted, "emp", "")}, Active: true}
	trans := NewEffect()
	if got, _ := EffectSatisfies(trans, r.Preds, cat); got {
		t.Error("rule with empty transition information triggered")
	}
	trans.AddOp(insOp("emp", 3))
	if got, _ := EffectSatisfies(trans, r.Preds, cat); !got {
		t.Error("rule not triggered by matching insert")
	}
}

func parseRule(t *testing.T, src string) *sqlast.CreateRule {
	t.Helper()
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st.(*sqlast.CreateRule)
}

func TestValidateRule(t *testing.T) {
	cat := testCatalog(t)
	good := []string{
		`create rule r1 when deleted from dept
		 then delete from emp where dept_no in (select dept_no from deleted dept)`,
		`create rule r2 when updated emp.salary
		 if (select sum(salary) from new updated emp.salary) > (select sum(salary) from old updated emp.salary)
		 then delete from emp where emp_no = 0`,
		`create rule r3 when inserted into emp
		 then insert into dept (select dept_no, emp_no from inserted emp)`,
		`create rule r4 when updated emp
		 then delete from emp where emp_no in (select emp_no from old updated emp)`,
		`create rule r5 when inserted into emp then rollback`,
	}
	for _, src := range good {
		if err := ValidateRule(parseRule(t, src), cat); err != nil {
			t.Errorf("valid rule rejected: %q: %v", src, err)
		}
	}
	bad := []struct{ src, frag string }{
		{`create rule b1 when deleted from nosuch then delete from emp`, "does not exist"},
		{`create rule b2 when updated emp.nosuch then delete from emp`, "no column"},
		{`create rule b3 when inserted into emp
		  then delete from emp where dept_no in (select dept_no from deleted emp)`, "no corresponding"},
		{`create rule b4 when updated emp.salary
		  then delete from emp where emp_no in (select emp_no from new updated emp.dept_no)`, "no corresponding"},
		{`create rule b5 when updated emp.salary
		  if exists (select * from old updated emp) then delete from emp`, "no corresponding"},
		{`create rule b6 when inserted into emp
		  if exists (select * from inserted dept) then delete from emp`, "no corresponding"},
	}
	for _, c := range bad {
		err := ValidateRule(parseRule(t, c.src), cat)
		if err == nil {
			t.Errorf("invalid rule accepted: %q", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q does not mention %q", err, c.frag)
		}
	}
}

func TestTriggerScopeString(t *testing.T) {
	if ScopeSinceAction.String() != "since-action" ||
		ScopeSinceConsidered.String() != "since-considered" ||
		ScopeSinceTriggered.String() != "since-triggered" {
		t.Error("TriggerScope names wrong")
	}
}

// setOf returns a rule set defining the named rules in order.
func setOf(t *testing.T, names ...string) *Set {
	t.Helper()
	s := &Set{}
	for _, n := range names {
		var err error
		if s, err = s.Define(&Rule{Name: n, Active: true}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// mustPriority returns s with the edge before → after added.
func mustPriority(t *testing.T, s *Set, before, after string) *Set {
	t.Helper()
	s2, err := s.AddPriority(before, after)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestSelectorPriorities(t *testing.T) {
	s := setOf(t, "a", "b", "c")
	s = mustPriority(t, s, "a", "b")
	s = mustPriority(t, s, "b", "c")
	if !s.Higher("a", "b") || !s.Higher("a", "c") || !s.Higher("b", "c") {
		t.Error("transitive closure wrong")
	}
	if s.Higher("c", "a") || s.Higher("b", "a") || s.Higher("a", "a") {
		t.Error("spurious priority")
	}
	if _, err := s.AddPriority("c", "a"); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := s.AddPriority("a", "a"); err == nil {
		t.Error("self-priority accepted")
	}
	if _, err := s.AddPriority("a", "nosuch"); err == nil {
		t.Error("priority over an undefined rule accepted")
	}
	// Dropping a rule removes its edges.
	dropped, err := s.Drop("b")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Higher("a", "c") {
		t.Error("edges through dropped rule should disappear (direct edges only remain)")
	}
	// The set the drop started from is unchanged.
	if !s.Higher("a", "c") || s.Len() != 3 {
		t.Error("Drop modified its receiver")
	}
}

func TestSelectorSelect(t *testing.T) {
	var sel Selector
	s := setOf(t, "a", "b", "c")
	a := Candidate{Ordinal: 0, LastConsidered: 3}
	b := Candidate{Ordinal: 1, LastConsidered: 1}
	c := Candidate{Ordinal: 2, LastConsidered: 2}

	if got := sel.Select(s, nil); got != -1 {
		t.Error("Select(empty) should be -1")
	}
	// No priorities: least-recently-considered wins.
	if got := sel.Select(s, []Candidate{a, b, c}); got != 1 {
		t.Errorf("LRU pick = %d", got)
	}
	sel.Strategy = StrategyMostRecent
	if got := sel.Select(s, []Candidate{a, b, c}); got != 0 {
		t.Errorf("MRU pick = %d", got)
	}
	sel.Strategy = StrategyNameOrder
	if got := sel.Select(s, []Candidate{c, a, b}); got != 0 {
		t.Errorf("name pick = %d", got)
	}
	// Priorities dominate any strategy: c before everything.
	sel.Strategy = StrategyLeastRecent
	s = mustPriority(t, s, "c", "a")
	s = mustPriority(t, s, "c", "b")
	if got := sel.Select(s, []Candidate{a, b, c}); got != 2 {
		t.Errorf("priority pick = %d", got)
	}
	// Example 4.3 setup: R2 before R1 → R2 chosen first.
	s2 := mustPriority(t, setOf(t, "r1", "r2"), "r2", "r1")
	r1, r2 := Candidate{Ordinal: 0}, Candidate{Ordinal: 1}
	if got := sel.Select(s2, []Candidate{r1, r2}); got != 1 {
		t.Errorf("Example 4.3 priority pick = %d", got)
	}
	// Ties among equal-priority maximal rules are deterministic.
	if got := sel.Select(s2, []Candidate{r1}); got != 0 {
		t.Error("single rule not selected")
	}
	// Choose picks among the maximal rules by name; an unknown answer
	// falls back to the first name.
	sel.Choose = func(names []string) string { return names[len(names)-1] }
	if got := sel.Select(setOf(t, "x", "y"), []Candidate{{Ordinal: 0}, {Ordinal: 1}}); got != 1 {
		t.Errorf("Choose pick = %d", got)
	}
	sel.Choose = func([]string) string { return "nosuch" }
	if got := sel.Select(setOf(t, "x", "y"), []Candidate{{Ordinal: 1}, {Ordinal: 0}}); got != 0 {
		t.Errorf("Choose fallback = %d", got)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyLeastRecent.String() == "" || StrategyMostRecent.String() == "" || StrategyNameOrder.String() == "" {
		t.Error("strategy names empty")
	}
}

func TestTransSourceMaterialization(t *testing.T) {
	// Build a real store so `inserted`/`new updated` can read live values.
	st := storage.New()
	emp, err := catalog.NewTable("emp", []catalog.Column{
		{Name: "name", Type: value.KindString},
		{Name: "salary", Type: value.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable(emp); err != nil {
		t.Fatal(err)
	}
	h1, _ := st.Insert("emp", storage.Row{value.NewString("a"), value.NewFloat(10)})
	h2, _ := st.Insert("emp", storage.Row{value.NewString("b"), value.NewFloat(20)})

	eff := NewEffect()
	eff.AddOp(insOp("emp", h2))
	oldRow := storage.Row{value.NewString("a"), value.NewFloat(5)}
	eff.Upd[h1] = UpdEntry{Table: "emp", OldRow: oldRow, Cols: map[int]bool{1: true}}
	eff.Del[999] = DelEntry{Table: "emp", OldRow: storage.Row{value.NewString("gone"), value.NewFloat(1)}}

	ts := &TransSource{Store: st, Effect: eff}

	rows, err := ts.TransRows(sqlast.TransInserted, "emp", "")
	if err != nil || len(rows) != 1 || rows[0].Values[0].Str() != "b" {
		t.Errorf("inserted: %v, %v", rows, err)
	}
	rows, err = ts.TransRows(sqlast.TransDeleted, "emp", "")
	if err != nil || len(rows) != 1 || rows[0].Values[0].Str() != "gone" {
		t.Errorf("deleted: %v, %v", rows, err)
	}
	rows, err = ts.TransRows(sqlast.TransOldUpdated, "emp", "salary")
	if err != nil || len(rows) != 1 || rows[0].Values[1].Float() != 5 {
		t.Errorf("old updated: %v, %v", rows, err)
	}
	rows, err = ts.TransRows(sqlast.TransNewUpdated, "emp", "salary")
	if err != nil || len(rows) != 1 || rows[0].Values[1].Float() != 10 {
		t.Errorf("new updated: %v, %v", rows, err)
	}
	// Column filter: no update touched "name".
	rows, err = ts.TransRows(sqlast.TransOldUpdated, "emp", "name")
	if err != nil || len(rows) != 0 {
		t.Errorf("old updated name: %v, %v", rows, err)
	}
	// Whole-table form sees all updates.
	rows, err = ts.TransRows(sqlast.TransNewUpdated, "emp", "")
	if err != nil || len(rows) != 1 {
		t.Errorf("new updated whole-table: %v, %v", rows, err)
	}
	// Bad column.
	if _, err := ts.TransRows(sqlast.TransOldUpdated, "emp", "nosuch"); err == nil {
		t.Error("bad column accepted")
	}
	// Selected tuples (Section 5.1): live ones materialize.
	eff.AddSelected("emp", []storage.Handle{h1})
	rows, err = ts.TransRows(sqlast.TransSelected, "emp", "")
	if err != nil || len(rows) != 1 || rows[0].Handle != h1 {
		t.Errorf("selected: %v, %v", rows, err)
	}
	// Nil effect → empty tables.
	empty := &TransSource{Store: st}
	n, err := ts2Rows(empty)
	if err != nil || n != 0 {
		t.Errorf("nil effect: %d, %v", n, err)
	}
	// Non-transition kind errors.
	if _, err := ts.TransRows(sqlast.TransNone, "emp", ""); err == nil {
		t.Error("TransNone accepted")
	}
}

func ts2Rows(ts *TransSource) (int, error) {
	rows, err := ts.TransRows(sqlast.TransInserted, "emp", "")
	return len(rows), err
}

func TestTransSourceDeterministicOrder(t *testing.T) {
	st := storage.New()
	tab, _ := catalog.NewTable("t", []catalog.Column{{Name: "a", Type: value.KindInt}})
	st.CreateTable(tab)
	eff := NewEffect()
	var want []storage.Handle
	for i := 0; i < 20; i++ {
		h, _ := st.Insert("t", storage.Row{value.NewInt(int64(i))})
		eff.AddOp(insOp("t", h))
		want = append(want, h)
	}
	ts := &TransSource{Store: st, Effect: eff}
	for trial := 0; trial < 3; trial++ {
		rows, err := ts.TransRows(sqlast.TransInserted, "t", "")
		if err != nil || len(rows) != 20 {
			t.Fatalf("rows: %d, %v", len(rows), err)
		}
		for i, r := range rows {
			if r.Handle != want[i] {
				t.Fatalf("order not ascending-handle: pos %d has %d", i, r.Handle)
			}
		}
	}
}
