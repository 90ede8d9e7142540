package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// aggCol names one column of the aggregate parity tables.
type aggCol struct{ table, col string }

func (c aggCol) String() string { return c.table + "." + c.col }

// aggCall is one select-list aggregate: count(*) when arg is nil.
type aggCall struct {
	name     string
	distinct bool
	arg      *aggCol
}

func (a aggCall) String() string {
	if a.arg == nil {
		return a.name + "(*)"
	}
	if a.distinct {
		return a.name + "(distinct " + a.arg.String() + ")"
	}
	return a.name + "(" + a.arg.String() + ")"
}

// aggQuery is one generated aggregate query: aggregates over a FROM list
// joined by equi-conjuncts, optionally grouped, filtered by HAVING
// count(*) >= having and ordered. A bare column after the aggregates reads
// the group's first member, so it sees whether evaluating an aggregate
// left the group's bindings as it found them.
type aggQuery struct {
	from     []string
	conds    [][2]aggCol
	residual bool // AND fa.x > 0
	group    *aggCol
	aggs     []aggCall
	bare     *aggCol
	having   int
	order    string
}

func (q aggQuery) sql() string {
	var items []string
	if q.group != nil {
		items = append(items, q.group.String())
	}
	for _, a := range q.aggs {
		items = append(items, a.String())
	}
	if q.bare != nil {
		items = append(items, q.bare.String())
	}
	var where []string
	for _, c := range q.conds {
		where = append(where, c[0].String()+" = "+c[1].String())
	}
	if q.residual {
		where = append(where, "fa.x > 0")
	}
	src := "select " + strings.Join(items, ", ") + " from " + strings.Join(q.from, ", ")
	if len(where) > 0 {
		src += " where " + strings.Join(where, " and ")
	}
	if q.group != nil {
		src += " group by " + q.group.String()
	}
	if q.having > 0 {
		src += fmt.Sprintf(" having count(*) >= %d", q.having)
	}
	return src + q.order
}

// aggTables creates the three parity tables with random contents: NULLs
// in every column, duplicate and NULL join keys, an INTEGER = FLOAT join
// (fa.k = fb.k), NaN floats (stored from 1e308 * 10 - 1e308 * 10, as in
// nan_repro_test.go) and strings. fc is the smallest, so the planner
// starts a join that includes it from fc wherever it sits in FROM. The
// rows are read back through the storage layer, in scan order, for the
// reference.
func aggTables(t *testing.T, rng *rand.Rand) (*Env, map[string][]storage.Row) {
	t.Helper()
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table fa (k int, g varchar, x int, f float, s varchar)`)
	mustExecDDL(t, e, `create table fb (k float, j int, y int)`)
	mustExecDDL(t, e, `create table fc (j int, w float)`)
	const nan = "1e308 * 10 - 1e308 * 10"
	floats := []string{"0.5", "1.5", "2.0", "-1.0", "3.0", nan}
	lit := func(s string) string {
		if rng.Intn(6) == 0 {
			return "null"
		}
		return s
	}
	for i, n := 0, 20+rng.Intn(30); i < n; i++ {
		mustOp(t, e, fmt.Sprintf("insert into fa values (%s, %s, %s, %s, %s)",
			lit(fmt.Sprint(rng.Intn(8))), lit(fmt.Sprintf("'%c'", 'p'+rng.Intn(3))),
			lit(fmt.Sprint(rng.Intn(25)-5)), lit(floats[rng.Intn(len(floats))]),
			lit(fmt.Sprintf("'s%d'", rng.Intn(5)))))
	}
	for i, n := 0, 8+rng.Intn(10); i < n; i++ {
		k := fmt.Sprintf("%d.0", rng.Intn(8))
		if rng.Intn(8) == 0 {
			k = nan
		}
		mustOp(t, e, fmt.Sprintf("insert into fb values (%s, %s, %s)",
			lit(k), lit(fmt.Sprint(rng.Intn(5))), lit(fmt.Sprint(rng.Intn(40)-10))))
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		mustOp(t, e, fmt.Sprintf("insert into fc values (%s, %s)",
			lit(fmt.Sprint(rng.Intn(5))), lit(floats[rng.Intn(len(floats))])))
	}
	rows := map[string][]storage.Row{}
	for _, name := range []string{"fa", "fb", "fc"} {
		if err := e.Store.Scan(name, func(tp *storage.Tuple) bool {
			rows[name] = append(rows[name], tp.Values)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e, rows
}

var aggTableCols = map[string][]string{
	"fa": {"k", "g", "x", "f", "s"},
	"fb": {"k", "j", "y"},
	"fc": {"j", "w"},
}

// randAggQuery draws a query over one table, a two-way or a three-way
// equi-join, with the FROM list shuffled and conjunct sides swapped.
func randAggQuery(rng *rand.Rand) aggQuery {
	shapes := []struct {
		from  []string
		conds [][2]aggCol
	}{
		{[]string{"fa"}, nil},
		{[]string{"fa", "fb"}, [][2]aggCol{{{"fa", "k"}, {"fb", "k"}}}},
		{[]string{"fb", "fc"}, [][2]aggCol{{{"fb", "j"}, {"fc", "j"}}}},
		{[]string{"fa", "fc"}, [][2]aggCol{{{"fa", "k"}, {"fc", "j"}}}},
		{[]string{"fa", "fb", "fc"}, [][2]aggCol{{{"fa", "k"}, {"fb", "k"}}, {{"fb", "j"}, {"fc", "j"}}}},
	}
	sh := shapes[rng.Intn(len(shapes))]
	q := aggQuery{from: slices.Clone(sh.from)}
	rng.Shuffle(len(q.from), func(i, j int) { q.from[i], q.from[j] = q.from[j], q.from[i] })
	for _, c := range sh.conds {
		if rng.Intn(2) == 0 {
			c[0], c[1] = c[1], c[0]
		}
		q.conds = append(q.conds, c)
	}
	q.residual = slices.Contains(q.from, "fa") && rng.Intn(3) == 0
	var cols []aggCol
	for _, tb := range q.from {
		for _, c := range aggTableCols[tb] {
			cols = append(cols, aggCol{tb, c})
		}
	}
	if rng.Intn(4) != 0 {
		g := cols[rng.Intn(len(cols))]
		q.group = &g
	}
	names := []string{"count", "sum", "avg", "min", "max"}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		if rng.Intn(5) == 0 {
			q.aggs = append(q.aggs, aggCall{name: "count"})
			continue
		}
		arg := cols[rng.Intn(len(cols))]
		q.aggs = append(q.aggs, aggCall{name: names[rng.Intn(len(names))], distinct: rng.Intn(3) == 0, arg: &arg})
	}
	if rng.Intn(3) == 0 {
		c := cols[rng.Intn(len(cols))]
		q.bare = &c
	}
	if rng.Intn(3) == 0 {
		q.having = 1 + rng.Intn(3)
	}
	switch rng.Intn(4) {
	case 1:
		q.order = " order by 1"
	case 2:
		q.order = " order by " + q.aggs[0].String() + " desc"
	case 3:
		q.order = " order by count(*), 1 desc"
	}
	return q
}

// reference evaluates q over the tables' rows by the definition: FROM-order
// nested loops, the conjuncts under three-valued logic, groups keyed by
// the rendered GROUP BY value in order of first appearance, and each
// aggregate folded over its group's non-NULL values. It reports whether
// the query must fail instead: a SUM or AVG of a string in a group that
// HAVING keeps. Rows are rendered by renderRow, in group order.
func (q aggQuery) reference(tables map[string][]storage.Row) (rows []string, fails bool) {
	colIdx := func(c aggCol) (rel, col int) {
		return slices.Index(q.from, c.table), slices.Index(aggTableCols[c.table], c.col)
	}
	get := func(combo []storage.Row, c aggCol) value.Value {
		rel, col := colIdx(c)
		return combo[rel][col]
	}
	var combos [][]storage.Row
	var walk func(combo []storage.Row)
	walk = func(combo []storage.Row) {
		if len(combo) == len(q.from) {
			for _, c := range q.conds {
				if cmp, ok := value.Compare(get(combo, c[0]), get(combo, c[1])); !ok || cmp != 0 {
					return
				}
			}
			if q.residual {
				if x := get(combo, aggCol{"fa", "x"}); x.IsNull() || x.Int() <= 0 {
					return
				}
			}
			combos = append(combos, slices.Clone(combo))
			return
		}
		for _, r := range tables[q.from[len(combo)]] {
			walk(append(combo, r))
		}
	}
	walk(nil)

	var order []string
	groups := map[string][][]storage.Row{}
	for _, c := range combos {
		key := ""
		if q.group != nil {
			key = get(c, *q.group).String()
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], c)
	}
	if q.group == nil && len(order) == 0 {
		order = []string{""}
	}
	for _, key := range order {
		members := groups[key]
		if len(members) < q.having {
			continue
		}
		var row []value.Value
		if q.group != nil {
			row = append(row, get(members[0], *q.group))
		}
		for _, a := range q.aggs {
			if a.arg == nil {
				row = append(row, value.NewInt(int64(len(members))))
				continue
			}
			var vals []value.Value
			for _, m := range members {
				if v := get(m, *a.arg); !v.IsNull() {
					vals = append(vals, v)
				}
			}
			if a.distinct {
				vals = distinctQuadratic(vals)
			}
			v, ok := foldReference(a.name, vals)
			if !ok {
				return nil, true
			}
			row = append(row, v)
		}
		if q.bare != nil {
			v := value.Null // a group with no members binds all-NULL rows
			if len(members) > 0 {
				v = get(members[0], *q.bare)
			}
			row = append(row, v)
		}
		rows = append(rows, renderRow(row))
	}
	return rows, false
}

// foldReference computes one aggregate over non-NULL values; ok is false
// when SUM or AVG meets a non-number.
func foldReference(name string, vals []value.Value) (value.Value, bool) {
	switch name {
	case "count":
		return value.NewInt(int64(len(vals))), true
	case "sum", "avg":
		if len(vals) == 0 {
			return value.Null, true
		}
		var sumI int64
		var sumF float64
		allInt := true
		for _, v := range vals {
			switch v.Kind() {
			case value.KindInt:
				sumI += v.Int()
				sumF += float64(v.Int())
			case value.KindFloat:
				allInt = false
				sumF += v.Float()
			default:
				return value.Null, false
			}
		}
		switch {
		case name == "avg":
			return value.NewFloat(sumF / float64(len(vals))), true
		case allInt:
			return value.NewInt(sumI), true
		}
		return value.NewFloat(sumF), true
	default:
		if len(vals) == 0 {
			return value.Null, true
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp, _ := value.Compare(v, best)
			if name == "min" && cmp < 0 || name == "max" && cmp > 0 {
				best = v
			}
		}
		return best, true
	}
}

// distinctQuadratic is the definition of an aggregate's DISTINCT: a value
// is kept unless it is Equal to one kept before it.
func distinctQuadratic(vals []value.Value) []value.Value {
	var out []value.Value
	for _, v := range vals {
		if !slices.ContainsFunc(out, v.Equal) {
			out = append(out, v)
		}
	}
	return out
}

// renderRow renders values with their kinds, so 1 and 1.0 differ.
func renderRow(row []value.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Kind().String() + ":" + v.String()
	}
	return strings.Join(parts, " ")
}

func renderResult(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = renderRow(row)
	}
	return out
}

// joinOrder returns the planner's relation order for sel's FROM list, or
// nil when the block runs FROM-order nested loops.
func joinOrder(t *testing.T, e *Env, sel *sqlast.Select) []int {
	t.Helper()
	bs := Bind(e.Store.Catalog(), sel).sel
	// Read every table whole, as the planner sees it without index probes.
	rels, err := (&Env{Store: e.Store, Naive: true}).materialize(&bs.block, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]float64, len(rels))
	for i := range rels {
		rows[i] = float64(rels[i].n)
	}
	plan := e.planJoins(bs.equi, rows, e.distinctEstimator(&bs.block, rels))
	if plan == nil {
		return nil
	}
	order := []int{plan.start}
	for _, st := range plan.steps {
		order = append(order, st.right)
	}
	return order
}

// TestAggregateParityProperty runs random aggregate queries — GROUP BY,
// HAVING, COUNT/SUM/AVG/MIN/MAX with and without DISTINCT, ORDER BY on an
// aggregate — over one table and over two- and three-way equi-joins. The
// planned engine and its Naive twin must agree byte for byte, error text
// included, and the grouped rows must match the reference computed from
// the stored rows. Some of the joins must run in an order other than FROM
// order, where the planned join restores odometer order itself.
func TestAggregateParityProperty(t *testing.T) {
	var queries, reordered, failed int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, tables := aggTables(t, rng)
		for i := 0; i < 40; i++ {
			q := randAggQuery(rng)
			src := q.sql()
			sel := mustParseSelect(t, src)
			got, gotErr := (&Env{Store: e.Store}).Query(sel)
			naive, naiveErr := (&Env{Store: e.Store, Naive: true}).Query(sel)
			queries++
			if fmt.Sprint(gotErr) != fmt.Sprint(naiveErr) {
				t.Fatalf("seed %d %q: error %v, naive error %v", seed, src, gotErr, naiveErr)
			}
			want, fails := q.reference(tables)
			if fails {
				failed++
				if gotErr == nil || !strings.Contains(gotErr.Error(), "over non-numeric value") {
					t.Fatalf("seed %d %q: error %v, want a non-numeric aggregate error", seed, src, gotErr)
				}
				continue
			}
			if gotErr != nil {
				t.Fatalf("seed %d %q: %v", seed, src, gotErr)
			}
			rows, naiveRows := renderResult(got), renderResult(naive)
			if !slices.Equal(rows, naiveRows) {
				t.Fatalf("seed %d %q:\nplanned %q\nnaive   %q", seed, src, rows, naiveRows)
			}
			slices.Sort(rows)
			slices.Sort(want)
			if !slices.Equal(rows, want) {
				t.Fatalf("seed %d %q:\ngot       %q\nreference %q", seed, src, rows, want)
			}
			if order := joinOrder(t, e, sel); order != nil && !slices.IsSorted(order) {
				reordered++
			}
		}
	}
	t.Logf("%d queries: %d reordered joins, %d failing", queries, reordered, failed)
	if reordered == 0 || failed == 0 {
		t.Fatalf("%d reordered joins and %d failing queries: the generator must reach both", reordered, failed)
	}
}

// TestAggregateOuterGroupInSubquery pins aggregates that a subquery takes
// from the enclosing group, in HAVING and in the select list, over a join
// the planner runs from its second relation. max(h.v) and count(*) bind to
// the outer h ⋈ hk group, so the subqueries are correlated per group.
func TestAggregateOuterGroupInSubquery(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table h (g int, v int)`)
	mustExecDDL(t, e, `create table hk (g int, label varchar)`)
	mustExecDDL(t, e, `create table lim (n int)`)
	mustOp(t, e, `insert into h values (1, 10), (3, 1), (1, 20), (2, 5), (3, 2), (3, 3)`)
	mustOp(t, e, `insert into hk values (3, 'three'), (1, 'one'), (2, 'two')`)
	mustOp(t, e, `insert into lim values (1), (2), (3), (4), (5), (6)`)
	src := `select hk.label, sum(h.v), (select min(lim.n) from lim where lim.n > count(*))
		from h, hk where h.g = hk.g
		group by hk.label
		having (select count(*) from lim where lim.n < max(h.v)) >= 3
		order by 2 desc`
	sel := mustParseSelect(t, src)
	if order := joinOrder(t, e, sel); !slices.Equal(order, []int{1, 0}) {
		t.Fatalf("join order %v, want [1 0]", order)
	}
	// one: count 2, max 20, six lim rows below it; two: count 1, max 5,
	// four below; three: max 3, two below, so HAVING drops it.
	want := []string{"VARCHAR:'one' INTEGER:30 INTEGER:3", "VARCHAR:'two' INTEGER:5 INTEGER:2"}
	for _, naive := range []bool{false, true} {
		res, err := (&Env{Store: e.Store, Naive: naive}).Query(sel)
		if err != nil {
			t.Fatalf("naive=%v: %v", naive, err)
		}
		if got := renderResult(res); !slices.Equal(got, want) {
			t.Errorf("naive=%v: got %q, want %q", naive, got, want)
		}
	}
}

// TestAggregateDistinctValueSet checks valueSet against the quadratic
// definition of DISTINCT: the same values kept, in first-occurrence
// order, over ints astride 2^53 (distinct ints that share a float image
// stay apart), 1 beside 1.0, -0.0 beside 0, NaNs (each kept: NaN is not
// Equal to itself), strings and booleans.
func TestAggregateDistinctValueSet(t *testing.T) {
	pool := []value.Value{
		value.NewInt(1), value.NewFloat(1), value.NewInt(0), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewInt(1<<53 + 2), value.NewFloat(1 << 53),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(2.5),
		value.NewString("1"), value.NewString(""), value.NewBool(true), value.NewBool(false), value.NewInt(-7),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		vals := make([]value.Value, rng.Intn(30))
		for j := range vals {
			vals[j] = pool[rng.Intn(len(pool))]
		}
		var got []value.Value
		set := valueSet{}
		for _, v := range vals {
			if set.add(v) {
				got = append(got, v)
			}
		}
		if g, w := renderRow(got), renderRow(distinctQuadratic(vals)); g != w {
			t.Fatalf("distinct of %s:\ngot  %s\nwant %s", renderRow(vals), g, w)
		}
	}
}

// TestAggregateDistinctNaN runs DISTINCT aggregates over stored NaNs and
// over a mixed INTEGER/FLOAT argument, against the quadratic definition
// applied to the stored rows, under both configurations.
func TestAggregateDistinctNaN(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table dv (i int, f float)`)
	mustOp(t, e, `insert into dv values (1, 1.0), (1, 1e308 * 10 - 1e308 * 10), (2, 1e308 * 10 - 1e308 * 10),
		(null, 2.5), (3, 1.0), (2, null), (null, 3.0)`)
	var is, fs, mixed []value.Value
	if err := e.Store.Scan("dv", func(tp *storage.Tuple) bool {
		i, f := tp.Values[0], tp.Values[1]
		if !i.IsNull() {
			is = append(is, i)
		}
		if !f.IsNull() {
			fs = append(fs, f)
		}
		switch {
		case !i.IsNull():
			mixed = append(mixed, i)
		case !f.IsNull():
			mixed = append(mixed, f)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sum := func(vals []value.Value) value.Value { v, _ := foldReference("sum", vals); return v }
	want := renderRow([]value.Value{
		value.NewInt(int64(len(distinctQuadratic(fs)))),
		value.NewInt(int64(len(distinctQuadratic(mixed)))),
		sum(distinctQuadratic(mixed)),
		value.NewInt(int64(len(distinctQuadratic(is)))),
	})
	// f: 1, NaN, NaN, 2.5, 3. coalesce(i, f): 1, 2, 2.5, 3. i: 1, 2, 3.
	if want != "INTEGER:5 INTEGER:4 FLOAT:8.5 INTEGER:3" {
		t.Fatalf("reference = %s", want)
	}
	src := `select count(distinct f), count(distinct coalesce(i, f)), sum(distinct coalesce(i, f)), count(distinct i) from dv`
	for _, naive := range []bool{false, true} {
		res, err := (&Env{Store: e.Store, Naive: naive}).Query(mustParseSelect(t, src))
		if err != nil {
			t.Fatalf("naive=%v: %v", naive, err)
		}
		if got := renderRow(res.Rows[0]); got != want {
			t.Errorf("naive=%v: got %s, want %s", naive, got, want)
		}
	}
}

// TestAggregateEvaluationErrorFirst pins the error order of one aggregate:
// every argument is evaluated before a fold error is reported, so a
// later member's evaluation error wins over an earlier member's
// non-numeric SUM operand.
func TestAggregateEvaluationErrorFirst(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table ev (n int, s varchar)`)
	mustOp(t, e, `insert into ev values (1, 'a'), (0, 'b')`)
	sel := mustParseSelect(t, `select sum(case when n = 1 then s else 1 / n end) from ev`)
	for _, naive := range []bool{false, true} {
		_, err := (&Env{Store: e.Store, Naive: naive}).Query(sel)
		if err == nil || err.Error() != "value: division by zero" {
			t.Errorf("naive=%v: error %v, want division by zero", naive, err)
		}
	}
}
