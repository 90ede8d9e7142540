package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// planEnv builds a three-table store sized so join order matters.
func planEnv(t *testing.T) *Env {
	t.Helper()
	e := &Env{Store: storage.New()}
	for _, src := range []string{
		`create table emp (name varchar, emp_no int not null, salary float, dept_no int)`,
		`create table dept (dept_no int, mgr_no int)`,
		`create table proj (proj_no int, emp_no int, dept_no int)`,
	} {
		mustExecDDL(t, e, src)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		sal := "NULL"
		if i%5 != 0 {
			sal = fmt.Sprintf("%d", 1000+rng.Intn(5000))
		}
		dn := "NULL"
		if i%7 != 0 {
			dn = fmt.Sprintf("%d", rng.Intn(6))
		}
		mustOp(t, e, fmt.Sprintf(`insert into emp values ('e%d', %d, %s, %s)`, i, i, sal, dn))
	}
	for d := 0; d < 6; d++ {
		mustOp(t, e, fmt.Sprintf(`insert into dept values (%d, %d)`, d, d%3))
	}
	for p := 0; p < 15; p++ {
		mustOp(t, e, fmt.Sprintf(`insert into proj values (%d, %d, %d)`, p, rng.Intn(40), rng.Intn(6)))
	}
	return e
}

// joinEnv builds a store with two join tables carrying NULLs, duplicates
// and cross-kind numeric keys: l.k is INTEGER and r.k FLOAT, so l.k = r.k
// runs in the float-image (non-exact) keyspace, which planEnv's
// all-integer keys never reach.
func joinEnv(t *testing.T, rows int, seed int64) *Env {
	t.Helper()
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table l (k int, lv varchar)`)
	mustExecDDL(t, e, `create table r (k float, rv varchar)`)
	mustExecDDL(t, e, `create table m (k int)`)
	mustOp(t, e, `insert into m values (1), (2)`)
	rng := rand.New(rand.NewSource(seed))
	var lb, rb strings.Builder
	lb.WriteString("insert into l values ")
	rb.WriteString("insert into r values ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			lb.WriteString(", ")
			rb.WriteString(", ")
		}
		lk := fmt.Sprintf("%d", rng.Intn(rows/2+1))
		if rng.Intn(10) == 0 {
			lk = "null"
		}
		rk := fmt.Sprintf("%d.0", rng.Intn(rows/2+1))
		if rng.Intn(10) == 0 {
			rk = "null"
		}
		fmt.Fprintf(&lb, "(%s, 'l%d')", lk, i)
		fmt.Fprintf(&rb, "(%s, 'r%d')", rk, i)
	}
	mustOp(t, e, lb.String())
	mustOp(t, e, rb.String())
	return e
}

// runBoth evaluates the same query under the default configuration and
// under Naive and requires the same outcome: byte-identical results
// (columns, rows, order), or the same error, which must contain wantErr
// ("" means the query must succeed). It also fences EXPLAIN against the
// executor: PlanCounters.Planned goes up by one exactly when EXPLAIN
// renders a hash-join tree rather than "nested loop (FROM order)" (a
// single-relation block renders neither).
func runBoth(t *testing.T, e *Env, src, wantErr string) {
	t.Helper()
	sel := mustParseSelect(t, src)
	var pc PlanCounters
	got, gotErr := (&Env{Store: e.Store, Counters: &pc}).Query(sel)
	want, naiveErr := (&Env{Store: e.Store, Naive: true}).Query(sel)
	switch {
	case fmt.Sprint(gotErr) != fmt.Sprint(naiveErr):
		t.Errorf("%q: error %v, naive error %v", src, gotErr, naiveErr)
	case (naiveErr == nil) != (wantErr == "") || naiveErr != nil && !strings.Contains(naiveErr.Error(), wantErr):
		t.Errorf("%q: error %v, want %q", src, naiveErr, wantErr)
	case naiveErr == nil && got.String() != want.String():
		t.Errorf("diverges on %q:\nplanned:\n%s\nnaive:\n%s", src, got, want)
	}
	exp, err := e.Explain(sel)
	if err != nil {
		t.Fatalf("explain %q: %v", src, err)
	}
	text := resultText(exp)
	tree, nested := strings.Contains(text, "hash join"), strings.Contains(text, "nested loop (FROM order)")
	if tree == nested && (tree || len(sel.From) > 1) {
		t.Errorf("%q: explain must render exactly one of a join tree and a nested loop:\n%s", src, text)
	}
	wantPlanned := int64(0)
	if tree {
		wantPlanned = 1
	}
	if got := pc.Planned.Load(); got != wantPlanned {
		t.Errorf("%q: Planned = %d, want %d for explain:\n%s", src, got, wantPlanned, text)
	}
}

// TestPlannerParity: the planned join path must be observationally
// identical to the naive nested-loop driver — same rows, same order, same
// errors — across joins of 2..4 relations, residual predicates, NULL join
// keys, aggregates, correlated subqueries, and incomparable key kinds.
// TestHashJoinEquivalence and TestHashJoinFallbackCases cover joinEnv.
func TestPlannerParity(t *testing.T) {
	e := planEnv(t)
	for _, src := range []string{
		`select e.name, d.mgr_no from emp e, dept d where e.dept_no = d.dept_no`,
		`select e.name, d.mgr_no from emp e, dept d where d.dept_no = e.dept_no and e.salary > 2000`,
		`select e.name, p.proj_no from emp e, dept d, proj p
		   where e.dept_no = d.dept_no and p.emp_no = e.emp_no`,
		`select count(*) from emp e, dept d, proj p
		   where e.dept_no = d.dept_no and p.dept_no = d.dept_no and p.emp_no = e.emp_no`,
		`select e.name from emp e, dept d where e.dept_no = d.dept_no and d.mgr_no = 1 order by e.name`,
		`select d.dept_no, count(*) from emp e, dept d where e.dept_no = d.dept_no group by d.dept_no`,
		`select e1.name, e2.name from emp e1, emp e2, dept d
		   where e1.dept_no = e2.dept_no and e2.dept_no = d.dept_no and e1.emp_no < e2.emp_no`,
		`select e.name from emp e, dept d
		   where e.dept_no = d.dept_no
		     and exists (select * from proj p where p.dept_no = d.dept_no)`,
		`select e.name, d.mgr_no, p.proj_no from emp e, dept d, proj p
		   where e.dept_no = d.dept_no and p.dept_no = d.dept_no limit 7`,
		// Cross-product component: emp-dept connected, proj unconnected.
		`select count(*) from emp e, dept d, proj p where e.dept_no = d.dept_no`,
	} {
		runBoth(t, e, src, "")
	}
	// Incomparable column kinds: the conjunct is not a join key, so the
	// comparison error surfaces exactly as in the nested loop.
	runBoth(t, e, `select e.name from emp e, dept d where e.name = d.dept_no`, "cannot compare VARCHAR with INTEGER")
	// A residual conjunct on each side of the hash-enforced one: the
	// planned driver evaluates only the residual, Naive all of WHERE.
	runBoth(t, e, `select e.name, d.mgr_no from emp e, dept d
	   where e.salary > 2000 and e.dept_no = d.dept_no and d.mgr_no < 2`, "")
	runBoth(t, e, `select e.name from emp e, dept d
	   where e.salary > 2000 and e.dept_no = d.dept_no and e.name < d.mgr_no`, "cannot compare VARCHAR with INTEGER")
}

// TestHashJoinEquivalence: over joinEnv's NULL, duplicate and int-vs-float
// keys, every two-way equi-join returns identical results through the hash
// join and through Naive's nested loop.
func TestHashJoinEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := joinEnv(t, 60, seed)
		for _, src := range []string{
			// int = float cross-kind key.
			`select l.lv, r.rv from l, r where l.k = r.k order by l.lv, r.rv`,
			// Reversed sides.
			`select l.lv, r.rv from l, r where r.k = l.k order by l.lv, r.rv`,
			// Residual predicate alongside the equi conjunct.
			`select l.lv, r.rv from l, r where l.k = r.k and l.lv <> r.rv order by l.lv, r.rv`,
			// Aliased relations.
			`select a.lv from l a, r b where a.k = b.k order by a.lv`,
			// No ORDER BY: physical emission order must also match.
			`select l.lv, r.rv from l, r where l.k = r.k and r.k > 1`,
			// Aggregation over the join.
			`select count(*), min(l.lv) from l, r where l.k = r.k`,
		} {
			runBoth(t, e, src, "")
		}
	}
}

// TestHashJoinFallbackCases: shapes other than a plain two-way equi-join —
// three-way joins, OR, a non-column operand, self-joins, an ambiguous
// reference — give the same outcome as Naive, error included.
func TestHashJoinFallbackCases(t *testing.T) {
	e := joinEnv(t, 20, 9)
	for _, c := range []struct{ src, wantErr string }{
		{`select count(*) from l, r, m where l.k = r.k and l.k = m.k`, ""},
		{`select count(*) from l, r where l.k = r.k or l.k is null`, ""},
		{`select count(*) from l, r where l.k + 0 = r.k`, ""},
		{`select count(*) from l a, l b where a.k = b.k`, ""},
		{`select count(*) from l a, l b where k = b.k`, "ambiguous column reference"},
	} {
		runBoth(t, e, c.src, c.wantErr)
	}
}

// TestPlannerParityRandom fuzzes equi-join queries over random data.
func TestPlannerParityRandom(t *testing.T) {
	e := planEnv(t)
	rng := rand.New(rand.NewSource(11))
	cols := []string{"emp_no", "dept_no"}
	for i := 0; i < 60; i++ {
		c1 := cols[rng.Intn(2)]
		c2 := cols[rng.Intn(2)]
		extra := ""
		if rng.Intn(2) == 0 {
			extra = fmt.Sprintf(" and e.salary > %d", 1000+rng.Intn(5000))
		}
		src := fmt.Sprintf(
			`select e.name, p.proj_no from emp e, dept d, proj p where e.%s = p.%s and d.dept_no = e.dept_no%s`,
			c1, c2, extra)
		runBoth(t, e, src, "")
	}
}

// TestPlannerCounters: the planned path reports itself through
// PlanCounters.
func TestPlannerCounters(t *testing.T) {
	e := planEnv(t)
	var pc PlanCounters
	env := &Env{Store: e.Store, Counters: &pc}
	mustQuery(t, env, `select e.name from emp e, dept d where e.dept_no = d.dept_no`)
	if got := pc.Planned.Load(); got != 1 {
		t.Fatalf("Planned = %d, want 1", got)
	}
	env.Naive = true
	mustQuery(t, env, `select e.name from emp e, dept d where e.dept_no = d.dept_no`)
	if got := pc.Planned.Load(); got != 1 {
		t.Fatalf("Planned after Naive query = %d, want still 1", got)
	}
}

func resultText(r *Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPlannerProbeFallbackCosted pins the 2^53 regression end to end: a
// float probe ≥ 2^53 on an INTEGER index cannot be answered exactly, so
// (a) EXPLAIN costs the access as a scan and says why, (b) execution
// falls back to the heap scan, counts the fallback, and still returns the
// right rows.
func TestPlannerProbeFallbackCosted(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table big (id int, tag varchar)`)
	if err := e.Store.(*storage.Store).CreateIndex("big_id", "big", "id"); err != nil {
		t.Fatal(err)
	}
	huge := int64(1) << 60 // integral, exceeds 2^53: float image is ambiguous
	mustOp(t, e, fmt.Sprintf(`insert into big values (%d, 'hit'), (%d, 'near'), (1, 'small')`, huge, huge+1))

	src := fmt.Sprintf(`select tag from big where id = %d.0`, huge)
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlast.Select)

	exp, err := e.Explain(sel)
	if err != nil {
		t.Fatal(err)
	}
	text := resultText(exp)
	if !strings.Contains(text, "cannot answer probe exactly, costed as scan") {
		t.Fatalf("explain must cost the 2^53 fallback as a scan:\n%s", text)
	}

	var pc PlanCounters
	env := &Env{Store: e.Store, Counters: &pc}
	res, err := env.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	// float64(2^60) == float64(2^60+1): under float comparison semantics
	// both rows match (value.Compare converts mixed int/float to float64).
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (float-image equality)\n%s", len(res.Rows), res)
	}
	if got := pc.ProbeFallbacks.Load(); got != 1 {
		t.Fatalf("ProbeFallbacks = %d, want 1", got)
	}

	// An in-range probe stays indexed and is costed as a probe.
	exp, err = e.Explain(mustParseSelect(t, `select tag from big where id = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resultText(exp), "index probe big (id = 1)") {
		t.Fatalf("in-range probe should stay indexed:\n%s", resultText(exp))
	}
}

func mustParseSelect(t *testing.T, src string) *sqlast.Select {
	t.Helper()
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlast.Select)
}

// TestLimit pins LIMIT semantics: applied after DISTINCT and ORDER BY,
// zero allowed, over-long limits are no-ops, negative/non-integer reject.
func TestLimit(t *testing.T) {
	e := testEnv(t)
	res := mustQuery(t, e, `select name from emp order by salary desc limit 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "jane" || res.Rows[1][0].Str() != "mary" {
		t.Fatalf("limit 2 after order by: %s", res)
	}
	if res := mustQuery(t, e, `select distinct dept_no from emp order by 1 limit 2`); len(res.Rows) != 2 {
		t.Fatalf("limit after distinct: %s", res)
	}
	if res := mustQuery(t, e, `select name from emp limit 0`); len(res.Rows) != 0 {
		t.Fatalf("limit 0: %s", res)
	}
	if res := mustQuery(t, e, `select name from emp limit 100`); len(res.Rows) != 6 {
		t.Fatalf("limit beyond rows: %s", res)
	}
	if res := mustQuery(t, e, `select name from emp limit 1 + 1`); len(res.Rows) != 2 {
		t.Fatalf("limit expression: %s", res)
	}
	if err := queryErr(t, e, `select name from emp limit -1`); err == nil {
		t.Fatal("negative limit must error")
	}
	if err := queryErr(t, e, `select name from emp limit 'x'`); err == nil {
		t.Fatal("non-integer limit must error")
	}
}

// TestExplainShapes sanity-checks the EXPLAIN renderer across statement
// kinds (goldens live in the engine package).
func TestExplainShapes(t *testing.T) {
	e := testEnv(t)
	sel := mustParseSelect(t, `select name from emp where dept_no = 1 order by name limit 3`)
	res, err := e.Explain(sel)
	if err != nil {
		t.Fatal(err)
	}
	text := resultText(res)
	for _, want := range []string{"select (cost-based planner)", "limit 3", "order by name", "filter", "seq scan emp (rows 6)"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain select missing %q:\n%s", want, text)
		}
	}
	join := mustParseSelect(t, `select e.name from emp e, dept d where e.dept_no = d.dept_no`)
	res, err = e.Explain(join)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resultText(res), "hash join") {
		t.Errorf("explain of an equi-join must show a hash join:\n%s", resultText(res))
	}
	res, err = (&Env{Store: e.Store, Naive: true}).Explain(join)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"select (naive)", "nested loop (FROM order)"} {
		if !strings.Contains(resultText(res), want) {
			t.Errorf("Naive explain missing %q:\n%s", want, resultText(res))
		}
	}
	for src, want := range map[string]string{
		`explain delete from emp where emp_no = 3`:                   "delete from emp",
		`explain update emp set salary = 0 where name = 'sam'`:       "update emp",
		`explain insert into dept values (9, 9)`:                     "insert into dept (1 rows)",
		`explain insert into dept (select dept_no, emp_no from emp)`: "insert into dept (from select)",
	} {
		st, err := sqlparse.ParseStatement(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := e.Explain(st.(*sqlast.Explain).Stmt)
		if err != nil {
			t.Fatalf("explain %q: %v", src, err)
		}
		if !strings.Contains(resultText(res), want) {
			t.Errorf("explain %q missing %q:\n%s", src, want, resultText(res))
		}
	}
	if _, err := e.Explain(&sqlast.ProcessRules{}); err == nil {
		t.Error("explaining PROCESS RULES must error")
	}
	_ = value.Null
}
