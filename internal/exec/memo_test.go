package exec

import (
	"fmt"
	"strings"
	"testing"

	"sopr/internal/sqlparse"
	"sopr/internal/storage"
)

// memoEnv builds the subquery-memo fixture: an outer table o whose column
// a shares its name with u's, two inner tables and an empty one.
func memoEnv(t *testing.T) *Env {
	t.Helper()
	e := &Env{Store: storage.New()}
	for _, src := range []string{
		`create table o (x int, a int)`,
		`create table u (a int)`,
		`create table v (b int)`,
		`create table z (b int)`,
	} {
		mustExecDDL(t, e, src)
	}
	mustOp(t, e, `insert into o values (1, 1), (2, 2), (3, 0), (2, 3), (9, 1)`)
	mustOp(t, e, `insert into u values (1), (2), (3)`)
	mustOp(t, e, `insert into v values (2), (3)`)
	return e
}

func heapScans(e *Env) int64 {
	hs, _ := e.Store.(*storage.Store).AccessStats()
	return hs
}

// queryScans fences the query src with runBoth, then runs it once more as
// shipped and returns that run's heap scans.
func queryScans(t *testing.T, e *Env, src, wantErr string) int64 {
	t.Helper()
	runBoth(t, e, src, wantErr)
	before := heapScans(e)
	_, _ = (&Env{Store: e.Store}).Query(mustParseSelect(t, src)) // runBoth checked the outcome
	return heapScans(e) - before
}

// opScans is runBoth for a DML operation: it runs src as shipped and under
// Naive, each on a fresh memoEnv, requires success and identical table
// contents afterwards, and returns the shipped run's heap scans.
func opScans(t *testing.T, src string) int64 {
	t.Helper()
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	run := func(naive bool) (string, int64) {
		e := memoEnv(t)
		e.Naive = naive
		before := heapScans(e)
		if _, err := e.ExecOp(st); err != nil {
			t.Fatalf("%q (naive %v): %v", src, naive, err)
		}
		scans := heapScans(e) - before
		var dump strings.Builder
		for _, table := range []string{"o", "u", "v", "z"} {
			dump.WriteString(mustQuery(t, e, "select * from "+table).String() + "\n")
		}
		return dump.String(), scans
	}
	got, scans := run(false)
	if want, _ := run(true); got != want {
		t.Errorf("%q diverges:\nshipped:\n%s\nnaive:\n%s", src, got, want)
	}
	return scans
}

// TestSubqueryMemoClosedOnce: every closed subquery form is evaluated once
// per statement — one heap scan of u beside the one of o — in a WHERE
// clause, an UPDATE assignment and an insert-select (Naive scans u once
// per row of o).
func TestSubqueryMemoClosedOnce(t *testing.T) {
	e := memoEnv(t)
	for _, pred := range []string{
		`x in (select a from u)`,
		`exists (select * from u where a > 2)`,
		`x > (select min(a) from u)`,
		`x > any (select a from u)`,
		`x >= all (select a from u)`,
	} {
		for _, src := range []string{
			`select x, a from o where ` + pred,
			`update o set a = case when ` + pred + ` then 1 else 0 end`,
			`insert into z (select x from o where ` + pred + `)`,
		} {
			var got int64
			if strings.HasPrefix(src, "select") {
				got = queryScans(t, e, src, "")
			} else {
				got = opScans(t, src)
			}
			if got != 2 {
				t.Errorf("%q: %d heap scans, want 2", src, got)
			}
		}
	}
	if got := queryScans(t, e, `select x, (select count(*) from u) from o`, ""); got != 2 {
		t.Errorf("select-list subquery: %d heap scans, want 2", got)
	}
}

// TestSubqueryMemoScoping: what counts as closed. Correlated subqueries —
// including one whose only outer reference is its LIMIT, evaluated in the
// enclosing scope, or one reaching its grandparent — run once per row; a
// closed subquery nested in a correlated one, or one ordered by a
// select-list alias, runs once.
func TestSubqueryMemoScoping(t *testing.T) {
	e := memoEnv(t)
	for _, c := range []struct {
		src   string
		scans int64
	}{
		// o, then u for each of o's 5 rows.
		{`select x from o where exists (select * from u where u.a = o.x)`, 6},
		// LIMIT a is o.a: a different limit per outer row.
		{`select x from o where x in (select a from u limit a)`, 6},
		// o, u per o row, v once.
		{`select x from o where exists (select * from u where u.a in (select b from v) and u.a = o.x)`, 7},
		// The innermost block reads o.x: o, u per o row, v per (o, u) pair.
		{`select x from o where exists (select * from u where exists (select * from v where v.b = o.x))`, 21},
		// ORDER BY x is the alias, not o.x.
		{`select x from o where x in (select a as x from u order by x desc limit 2)`, 2},
		// An aggregate in WHERE, or nested in another aggregate, counts the
		// enclosing group: o, then u for each of o's 4 groups.
		{`select a from o group by a having exists (select * from u where count(*) > 1)`, 5},
		{`select a from o group by a having (select max(count(*)) from u) > 1`, 5},
	} {
		if got := queryScans(t, e, c.src, ""); got != c.scans {
			t.Errorf("%q: %d heap scans, want %d", c.src, got, c.scans)
		}
	}
	if res := mustQuery(t, e, `select x from o where x in (select a from u limit a)`); fmt.Sprint(res.Rows) != "[(1) (2) (2)]" {
		t.Errorf("per-row LIMIT: %v", res.Rows)
	}
}

// TestSubqueryMemoErrors: a memoized error surfaces exactly where the
// per-row evaluation raises it — at the first outer row — and not at all
// when there is no outer row.
func TestSubqueryMemoErrors(t *testing.T) {
	e := memoEnv(t)
	if got := queryScans(t, e, `select x from o where x = (select a from u where a > 1)`, "scalar subquery returned 2 rows"); got != 2 {
		t.Errorf("erroring subquery: %d heap scans, want 2", got)
	}
	if got := queryScans(t, e, `select b from z where b = (select a from u where a > 1)`, ""); got != 1 {
		t.Errorf("empty outer relation: %d heap scans, want 1", got)
	}
}

// TestSubqueryMemoStatementBoundary is the memo's invalidation test: one
// Env runs a query, a delete of the table its closed subquery reads, and
// the query again, which must see the delete.
func TestSubqueryMemoStatementBoundary(t *testing.T) {
	e := memoEnv(t)
	const q = `select x from o where x in (select a from u)`
	if res := mustQuery(t, e, q); fmt.Sprint(res.Rows) != "[(1) (2) (3) (2)]" {
		t.Fatalf("before delete: %v", res.Rows)
	}
	mustOp(t, e, `delete from u where a = 2`)
	before := heapScans(e)
	if res := mustQuery(t, e, q); fmt.Sprint(res.Rows) != "[(1) (3)]" {
		t.Errorf("after delete: %v", res.Rows)
	}
	if got := heapScans(e) - before; got != 2 {
		t.Errorf("after delete: %d heap scans, want 2", got)
	}
}

// TestSubqueryMemoSharedWithProbe: the IN-subquery an index probe
// evaluates at plan time is the one the residual WHERE then reads, so u is
// scanned once and o not at all.
func TestSubqueryMemoSharedWithProbe(t *testing.T) {
	e := memoEnv(t)
	if err := e.Store.(*storage.Store).CreateIndex("o_x", "o", "x"); err != nil {
		t.Fatal(err)
	}
	if got := queryScans(t, e, `select x, a from o where x in (select a from u)`, ""); got != 1 {
		t.Errorf("probe plus residual: %d heap scans, want 1", got)
	}
}

// TestIndexProbeCorrelatedLimit: an IN-subquery's LIMIT is evaluated in
// the enclosing scope, so `limit k` below names t.k, the scanned row's
// column. The index probe on t.c must not evaluate the subquery at plan
// time in s's scope (where k is s.k = 0); the answer is 1 either way.
func TestIndexProbeCorrelatedLimit(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table s (k int)`)
	mustExecDDL(t, e, `create table t (c int, k int)`)
	mustExecDDL(t, e, `create table u (a int)`)
	mustOp(t, e, `insert into s values (0)`)
	mustOp(t, e, `insert into t values (1, 1), (2, 1)`)
	mustOp(t, e, `insert into u values (1), (2), (3)`)
	if err := e.Store.(*storage.Store).CreateIndex("t_c", "t", "c"); err != nil {
		t.Fatal(err)
	}
	const q = `select count(*) from s where exists (select * from t where c in (select a from u limit k))`
	runBoth(t, e, q, "")
	if res := mustQuery(t, e, q); res.Rows[0][0].Int() != 1 {
		t.Errorf("count = %v, want 1", res.Rows[0][0])
	}
}
