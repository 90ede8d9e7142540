package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sopr/internal/storage"
	"sopr/internal/value"
)

// snapshotEnv builds t = 1, 2, 3 and u = 1, 2, 3 in a live store.
func snapshotEnv(t *testing.T) (*Env, *storage.Store) {
	t.Helper()
	st := storage.New()
	e := &Env{Store: st}
	mustExecDDL(t, e, `create table t (a int)`)
	mustExecDDL(t, e, `create table u (a int)`)
	mustOp(t, e, `insert into t values (1), (2), (3)`)
	mustOp(t, e, `insert into u values (1), (2), (3)`)
	return e, st
}

// column returns the first column of a query's rows, rendered.
func column(t *testing.T, e *Env, src string) string {
	t.Helper()
	var out []string
	for _, row := range mustQuery(t, e, src).Rows {
		out = append(out, row[0].String())
	}
	return strings.Join(out, " ")
}

// TestStatementSnapshot: a statement evaluates against the state it began
// in, although relations read base tables in place. An INSERT ... SELECT
// reading its own target doubles it exactly, and an UPDATE whose
// assignment counts the rows below each one sees none of its own writes.
// A snapshot taken before the statements reads the old rows throughout.
func TestStatementSnapshot(t *testing.T) {
	e, st := snapshotEnv(t)
	before := st.PublishSnapshot()
	mustOp(t, e, `insert into t select * from t`)
	mustOp(t, e, `update u set a = (select count(*) from u v where v.a < u.a) + 10`)
	if got := column(t, e, `select a from t order by a`); got != "1 1 2 2 3 3" {
		t.Errorf("t after insert-select = %s, want 1 1 2 2 3 3", got)
	}
	if got := column(t, e, `select a from u order by a`); got != "10 11 12" {
		t.Errorf("u after update = %s, want 10 11 12", got)
	}
	old := &Env{Store: before}
	if got := column(t, old, `select a from t order by a`); got != "1 2 3" {
		t.Errorf("snapshot t = %s, want 1 2 3", got)
	}
	if got := column(t, old, `select (select count(*) from u v where v.a < u.a) + 10 from u order by 1`); got != "10 11 12" {
		t.Errorf("snapshot correlated count = %s, want 10 11 12", got)
	}
	now := &Env{Store: st.PublishSnapshot()}
	if got := column(t, now, `select count(*) from t, t t2 where t.a = t2.a`); got != "12" {
		t.Errorf("published self-join count = %s, want 12", got)
	}
}

// TestNameErrorTiming: binding reports nothing; a reference that resolves
// nowhere fails when it is evaluated, so over an empty table it never is.
func TestNameErrorTiming(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table t (a int)`)
	const src = `select a from t where nosuch = 1`
	if err := queryErr(t, e, src); err != nil {
		t.Fatalf("over an empty table: %v, want no error", err)
	}
	mustOp(t, e, `insert into t values (1)`)
	if err := queryErr(t, e, src); err == nil || err.Error() != `exec: unknown column "nosuch"` {
		t.Fatalf("over one row: %v, want exec: unknown column \"nosuch\"", err)
	}
}

// TestInSetMatchesDefinition: hashed IN-subquery membership answers every
// probe exactly as the linear definition does, over ints and floats that
// compare equal, NaN, ±0, integers astride 2^53, strings and NULLs.
func TestInSetMatchesDefinition(t *testing.T) {
	pool := []value.Value{
		value.Null,
		value.NewInt(0), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(1), value.NewFloat(1), value.NewFloat(1.5), value.NewInt(-7),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53), value.NewFloat(1<<53 + 2),
		value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewString("1"), value.NewString("x"), value.NewBool(true),
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		rows := make([]storage.Row, rng.Intn(3*inSetMin))
		for i := range rows {
			rows[i] = storage.Row{pool[rng.Intn(len(pool))]}
		}
		set := newInSet(rows)
		for _, v := range pool {
			if got, want := set.contains(v), inRows(v, rows); got != want {
				t.Fatalf("%v IN %v: hashed %v, definition %v", v, rows, got, want)
			}
		}
	}
}

// TestInSubqueryHashedParity: IN over a closed subquery long enough to be
// hashed gives Naive's per-row answers, negated and with NULLs in the list
// or the probe.
func TestInSubqueryHashedParity(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table p (x float)`)
	mustExecDDL(t, e, `create table s (y int)`)
	var vals []string
	for i := 0; i < 3*inSetMin; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i*2))
	}
	mustOp(t, e, `insert into s values `+strings.Join(vals, ", "))
	mustOp(t, e, `insert into p values (0), (1), (2.0), (4.5), (null), (46)`)
	for _, src := range []string{
		`select x from p where x in (select y from s)`,
		`select x from p where x not in (select y from s)`,
		`select x, x in (select y from s) from p`,
	} {
		runBoth(t, e, src, "")
	}
	mustOp(t, e, `insert into s values (null)`)
	runBoth(t, e, `select x, x in (select y from s), x not in (select y from s) from p`, "")
	var got []string
	for _, row := range mustQuery(t, e, `select x in (select y from s) from p`).Rows {
		got = append(got, row[0].String())
	}
	if want := "TRUE NULL TRUE NULL NULL TRUE"; strings.Join(got, " ") != want {
		t.Fatalf("IN with a NULL element = %v, want %s", got, want)
	}
}
