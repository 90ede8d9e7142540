package rules

// Tests exercising branches that the main test files do not reach:
// SetEffect helpers, Apply with selections, validation walks over every
// expression form, selector edge listing, and the rule set's table index.

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
)

func TestSetEffectCloneCoversUpdates(t *testing.T) {
	e := NewSetEffect()
	e.I[1] = true
	e.D[2] = true
	e.U[3] = map[int]bool{0: true, 2: true}
	c := e.Clone()
	if !c.Equal(e) {
		t.Fatal("clone not equal")
	}
	c.U[3][5] = true
	if e.U[3][5] {
		t.Error("clone shares U column sets")
	}
	// Equal detects column-set differences.
	d := e.Clone()
	d.U[3] = map[int]bool{0: true}
	if d.Equal(e) {
		t.Error("Equal ignored column-set size")
	}
	d.U[3] = map[int]bool{0: true, 1: true}
	if d.Equal(e) {
		t.Error("Equal ignored column identity")
	}
	d = e.Clone()
	d.D[9] = true
	delete(d.D, 2)
	if d.Equal(e) {
		t.Error("Equal ignored D membership")
	}
	d = e.Clone()
	d.U[99] = map[int]bool{1: true}
	delete(d.U, 3)
	if d.Equal(e) {
		t.Error("Equal ignored U handle membership")
	}
}

func TestCheckDisjointViolations(t *testing.T) {
	mk := func() SetEffect { return NewSetEffect() }
	e := mk()
	e.I[1] = true
	e.D[1] = true
	if err := e.CheckDisjoint(); err == nil {
		t.Error("I∩D accepted")
	}
	e = mk()
	e.I[1] = true
	e.U[1] = map[int]bool{0: true}
	if err := e.CheckDisjoint(); err == nil {
		t.Error("I∩U accepted")
	}
	e = mk()
	e.D[1] = true
	e.U[1] = map[int]bool{0: true}
	if err := e.CheckDisjoint(); err == nil {
		t.Error("D∩U accepted")
	}
	e = mk()
	e.I[1] = true
	e.D[2] = true
	e.U[3] = map[int]bool{0: true}
	if err := e.CheckDisjoint(); err != nil {
		t.Errorf("disjoint rejected: %v", err)
	}
}

func TestApplyPropagatesSelections(t *testing.T) {
	e1 := NewEffect()
	e1.AddSelected("t", []storage.Handle{1, 2})
	e2 := NewEffect()
	e2.AddSelected("t", []storage.Handle{3})
	e2.AddOp(insOp("t", 4))
	e2.AddSelected("t", []storage.Handle{4}) // own insert: ignored
	e1.Apply(e2)
	if len(e1.Sel) != 3 {
		t.Errorf("Sel after Apply: %v", e1.Sel)
	}
	// A later deletion drops the selection.
	e3 := NewEffect()
	e3.AddOp(delOp("t", storage.Handle(3), row(0)))
	e1.Apply(e3)
	if _, ok := e1.Sel[3]; ok {
		t.Error("deleted tuple still selected")
	}
	// Selection of a tuple the base effect inserted is ignored on Apply.
	base := NewEffect()
	base.AddOp(insOp("t", 9))
	next := NewEffect()
	next.AddSelected("t", []storage.Handle{9})
	// next doesn't know 9 is new; Apply must notice.
	base.Apply(next)
	if _, ok := base.Sel[9]; ok {
		t.Error("selection of effect-local insert recorded")
	}
}

func TestApplyDeleteOfUnknownTupleUsesNextValues(t *testing.T) {
	// Deleting a tuple this composite never touched records the deleted
	// value reported by the incoming transition.
	e1 := NewEffect()
	e2 := NewEffect()
	e2.AddOp(delOp("t", storage.Handle(5), row(42)))
	e1.Apply(e2)
	if e1.Del[5].OldRow[0].Int() != 42 {
		t.Errorf("del value: %v", e1.Del[5])
	}
}

// Property: filtering commutes with composition — maintaining a filtered
// composite with ApplyFiltered equals maintaining the full composite and
// filtering at the end.
func TestFilteredApplyCommutesProperty(t *testing.T) {
	keep := func(table string) bool { return table == "a" }
	for trial := 0; trial < 100; trial++ {
		// Build a stream of two-table effects.
		full := NewEffect()
		filtered := NewEffect()
		var handles []storage.Handle
		next := storage.Handle(trial * 1000)
		for step := 0; step < 10; step++ {
			e := NewEffect()
			for k := 0; k < 4; k++ {
				table := "a"
				if (int(next)+k)%3 == 0 {
					table = "b"
				}
				switch (int(next) + k) % 4 {
				case 0, 1:
					next++
					handles = append(handles, next)
					e.AddOp(insOp(table, next))
				case 2:
					if len(handles) > 0 {
						h := handles[(int(next)+k)%len(handles)]
						tbl := tableOf(full, h, table)
						e.AddOp(updOp(tbl, h, row(1, 2), k%2))
					}
				default:
					if len(handles) > 0 {
						j := (int(next) + k) % len(handles)
						h := handles[j]
						tbl := tableOf(full, h, table)
						handles = append(handles[:j], handles[j+1:]...)
						e.AddOp(delOp(tbl, h, row(9)))
					}
				}
			}
			full.Apply(e)
			filtered.ApplyFiltered(e, keep)
		}
		want := full.CloneFiltered(keep)
		got := filtered
		if !got.SetEffect().Equal(want.SetEffect()) {
			t.Fatalf("trial %d: filtered maintenance diverged\n got: %v\nwant: %v", trial, got, want)
		}
	}
}

// tableOf keeps a handle's table stable across the random stream (a handle
// belongs to one table for life).
func tableOf(e *Effect, h storage.Handle, fallback string) string {
	if t, ok := e.Ins[h]; ok {
		return t
	}
	if u, ok := e.Upd[h]; ok {
		return u.Table
	}
	if d, ok := e.Del[h]; ok {
		return d.Table
	}
	return fallback
}

func TestCloneFiltered(t *testing.T) {
	e := NewEffect()
	e.AddOp(insOp("a", 1))
	e.AddOp(insOp("b", 2))
	e.AddOp(updOp("a", 3, row(1), 0))
	e.AddOp(delOp("b", storage.Handle(4), row(2)))
	e.AddSelected("a", []storage.Handle{5})
	c := e.CloneFiltered(func(tbl string) bool { return tbl == "a" })
	if len(c.Ins) != 1 || c.Ins[1] != "a" {
		t.Errorf("Ins: %v", c.Ins)
	}
	if len(c.Del) != 0 {
		t.Errorf("Del: %v", c.Del)
	}
	if len(c.Upd) != 1 {
		t.Errorf("Upd: %v", c.Upd)
	}
	if len(c.Sel) != 1 {
		t.Errorf("Sel: %v", c.Sel)
	}
}

func TestRuleKeep(t *testing.T) {
	r := &Rule{Preds: []sqlast.TransPred{
		pred(sqlast.PredInserted, "emp", ""),
		pred(sqlast.PredUpdated, "emp", "salary"),
		pred(sqlast.PredSelected, "audit", ""),
	}}
	if !r.Keep("emp") || !r.Keep("audit") || r.Keep("dept") {
		t.Error("Keep must hold exactly for the predicate tables")
	}
	if (&Rule{}).Keep("emp") {
		t.Error("a rule without predicates keeps nothing")
	}
}

func TestSelectorEdges(t *testing.T) {
	s := setOf(t, "a", "b", "c")
	if edges := s.Edges(); len(edges) != 0 {
		t.Errorf("empty set edges: %v", edges)
	}
	s = mustPriority(t, s, "b", "c")
	s = mustPriority(t, s, "a", "c")
	s = mustPriority(t, s, "a", "b")
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if got := s.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	s, err := s.Drop("a")
	if err != nil {
		t.Fatal(err)
	}
	want = [][2]string{{"b", "c"}}
	if got := s.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("after drop: %v", got)
	}
}

// Property (§4.4): whatever the declared priority DAG and the triggered
// subset, Select returns a rule not strictly dominated by any other
// triggered rule, and acyclicity is always preserved.
func TestSelectorMaximalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	var sel Selector
	for trial := 0; trial < 200; trial++ {
		s := setOf(t, names...)
		// Random edge attempts; cycle-creating ones must be rejected.
		for k := 0; k < 10; k++ {
			i, j := rng.Intn(len(names)), rng.Intn(len(names))
			s2, err := s.AddPriority(names[i], names[j])
			if err != nil {
				continue
			}
			if s2.Higher(names[j], names[i]) {
				t.Fatal("accepted edge created a cycle")
			}
			s = s2
		}
		// Random triggered subset.
		var triggered []Candidate
		for i := range names {
			if rng.Intn(2) == 0 {
				triggered = append(triggered, Candidate{Ordinal: i, LastConsidered: int64(rng.Intn(5))})
			}
		}
		got := sel.Select(s, triggered)
		if len(triggered) == 0 {
			if got != -1 {
				t.Fatal("Select of empty set returned a rule")
			}
			continue
		}
		if got < 0 {
			t.Fatal("Select returned -1 for non-empty set")
		}
		for _, c := range triggered {
			if c.Ordinal != got && s.Higher(names[c.Ordinal], names[got]) {
				t.Fatalf("trial %d: selected %q is dominated by triggered %q", trial, names[got], names[c.Ordinal])
			}
		}
	}
}

// TestValidateRuleWalksEveryExprForm drives the reference walker through
// every expression node kind via a condition that buries an illegal
// transition-table reference inside each construct.
func TestValidateRuleWalksEveryExprForm(t *testing.T) {
	cat := testCatalog(t)
	// Each condition hides `deleted emp` (not licensed by the predicate)
	// inside a different expression form; all must be rejected.
	conditions := []string{
		`not exists (select * from deleted emp)`,
		`(select count(*) from deleted emp) > 0 and true`,
		`true or (select count(*) from deleted emp) > 0`,
		`(select count(*) from deleted emp) is null`,
		`1 between 0 and (select count(*) from deleted emp)`,
		`(select min(name) from deleted emp) like 'a%'`,
		`1 in (2, (select count(*) from deleted emp))`,
		`1 in (select emp_no from deleted emp)`,
		`salary > all (select salary from deleted emp)`,
		`coalesce((select count(*) from deleted emp), 0) > 0`,
		`-(select count(*) from deleted emp) < 0`,
	}
	for _, cond := range conditions {
		src := `create rule r when inserted into emp if ` + cond + ` then delete from emp end`
		if err := ValidateRule(parseRule(t, src), cat); err == nil {
			t.Errorf("condition %q: illegal reference not caught", cond)
		}
	}
	// And inside each action operation form.
	actions := []string{
		`insert into emp (select * from deleted emp)`,
		`insert into dept values ((select count(*) from deleted emp), 1)`,
		`delete from emp where emp_no in (select emp_no from deleted emp)`,
		`update emp set salary = (select count(*) from deleted emp)`,
		`update emp set salary = 0 where emp_no in (select emp_no from deleted emp)`,
		`select * from deleted emp`,
	}
	for _, act := range actions {
		src := `create rule r when inserted into emp then ` + act + ` end`
		if err := ValidateRule(parseRule(t, src), cat); err == nil {
			t.Errorf("action %q: illegal reference not caught", act)
		}
	}
	// Select-list, group-by, having and order-by positions inside a
	// licensed subquery also walk.
	src := `create rule r when inserted into emp
		if exists (select (select count(*) from deleted emp) from emp group by name having count(*) > 0 order by name)
		then delete from emp end`
	if err := ValidateRule(parseRule(t, src), cat); err == nil {
		t.Error("select-list reference not caught")
	}
}

// TestSetWatchers: the table → rules index lists each active rule once
// under each of its predicate tables — `selected t` included, and however
// many predicates name the table — and leaves inactive rules out. Its lazy
// first build is safe from several goroutines at once.
func TestSetWatchers(t *testing.T) {
	preds := func(ps ...sqlast.TransPred) []sqlast.TransPred { return ps }
	s := &Set{}
	for _, r := range []*Rule{
		{Name: "ins_del_t", Active: true, Preds: preds(
			pred(sqlast.PredInserted, "t", ""), pred(sqlast.PredDeleted, "t", ""))},
		{Name: "t_and_u", Active: true, Preds: preds(
			pred(sqlast.PredUpdated, "t", "a"), pred(sqlast.PredInserted, "u", ""))},
		{Name: "sel_w", Active: true, Preds: preds(pred(sqlast.PredSelected, "w", ""))},
		{Name: "off", Preds: preds(pred(sqlast.PredInserted, "t", ""), pred(sqlast.PredInserted, "x", ""))},
	} {
		var err error
		if s, err = s.Define(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Watchers("t")
		}()
	}
	wg.Wait()
	for table, want := range map[string][]int{"t": {0, 1}, "u": {1}, "w": {2}, "x": nil, "v": nil} {
		if got := s.Watchers(table); !slices.Equal(got, want) {
			t.Errorf("Watchers(%q) = %v, want %v", table, got, want)
		}
	}
	if got := (&Set{}).Watchers("t"); len(got) != 0 {
		t.Errorf("empty set: Watchers = %v", got)
	}
}
