package gen

import (
	"fmt"
	"math/rand"
)

// Generation policy notes (these constraints keep engine and oracle
// honestly comparable rather than papering over real divergence):
//
//   - Float literals are multiples of 0.25 with small magnitude, and
//     generated arithmetic uses only + and -. Sums of small dyadic
//     rationals are exact in float64, so aggregate results cannot depend
//     on accumulation order and no generated expression can overflow to
//     ±Inf or produce NaN (neither has an SQL spelling, so a dump
//     containing one would not reload).
//   - No division, so no divide-by-zero errors whose discovery point
//     could differ between access paths.
//   - All columns are nullable and ~15% of generated literals are NULL,
//     exercising three-valued logic in predicates and aggregates.
//   - Where atoms always reference columns of the nearest enclosing
//     source table (no correlated subqueries); the oracle interprets
//     them with exactly that scoping.
//
// Trigger-graph discipline: most rule actions target tables watched only
// by later rules or by no rule, so cascades usually terminate well under
// the transition cap; a minority branch targets arbitrary tables
// (self-triggering and cycles) to exercise the footnote 7 runaway guard,
// whose tripping is itself compared for parity.

type genctx struct {
	rng *rand.Rand
	w   *Workload
}

func (g *genctx) intn(n int) int       { return g.rng.Intn(n) }
func (g *genctx) pct(p int) bool       { return g.rng.Intn(100) < p }
func (g *genctx) pick(n int) int       { return g.rng.Intn(n) }
func (g *genctx) between(a, b int) int { return a + g.rng.Intn(b-a+1) }

var colKinds = []string{"int", "int", "float", "varchar", "boolean"}

var stringPool = []string{"a", "b", "c", "ab", "bc", "x'y", ""}

// Generate produces a random valid workload from the seed. The same seed
// always yields the same workload.
func Generate(seed int64) *Workload {
	// Cap 40 keeps runaway cascades cheap: a divergent rule set trips the
	// footnote 7 guard after at most 40 rule transitions, which together
	// with the insert-select restrictions below bounds the worst-case row
	// count of any generated workload to a few hundred thousand rows (rule
	// firings can move at most their transition tables' rows per firing,
	// and insert-select amplification chains are acyclic).
	g := &genctx{rng: rand.New(rand.NewSource(seed)), w: &Workload{Seed: seed, Cap: 40}}
	orderFree := g.pct(30)

	nTables := g.between(1, 3)
	for i := 0; i < nTables; i++ {
		g.w.Tables = append(g.w.Tables, g.table(fmt.Sprintf("t%d", i)))
	}

	nRules := g.between(0, 4)
	if orderFree && nRules > 0 {
		// One private sink table per rule: unwatched, pairwise disjoint
		// action targets are the core of the order-independence argument.
		for i := 0; i < nRules; i++ {
			g.w.Tables = append(g.w.Tables, g.table(fmt.Sprintf("s%d", i)))
		}
	}

	nIdx := g.between(0, 2)
	for i := 0; i < nIdx; i++ {
		t := &g.w.Tables[g.pick(len(g.w.Tables))]
		c := t.Cols[g.pick(len(t.Cols))]
		name := fmt.Sprintf("ix%d", i)
		dup := false
		for _, ix := range g.w.Indexes {
			if ix.Table == t.Name && ix.Column == c.Name {
				dup = true
			}
		}
		if !dup {
			g.w.Indexes = append(g.w.Indexes, Index{Name: name, Table: t.Name, Column: c.Name})
		}
	}

	for i := 0; i < nRules; i++ {
		if orderFree {
			g.w.Rules = append(g.w.Rules, g.orderFreeRule(i, nTables))
		} else {
			g.w.Rules = append(g.w.Rules, g.rule(i, nRules))
		}
	}

	// Priority edges oriented along a random permutation, which keeps any
	// edge set acyclic.
	if nRules > 1 {
		rank := g.rng.Perm(nRules)
		for i := 0; i < nRules; i++ {
			for j := i + 1; j < nRules; j++ {
				if g.pct(20) {
					a, b := i, j
					if rank[a] > rank[b] {
						a, b = b, a
					}
					g.w.Priorities = append(g.w.Priorities, Priority{
						Before: g.w.Rules[a].Name, After: g.w.Rules[b].Name,
					})
				}
			}
		}
	}

	nTxns := g.between(2, 5)
	for i := 0; i < nTxns; i++ {
		nStmts := g.between(1, 4)
		var txn []Stmt
		for s := 0; s < nStmts; s++ {
			txn = append(txn, g.stmt())
			if g.pct(15) && s < nStmts-1 {
				txn = append(txn, Stmt{Kind: "process"})
			}
		}
		g.w.Txns = append(g.w.Txns, txn)
	}

	g.w.OrderIndependent = g.w.markOrder()
	if err := g.w.Validate(); err != nil {
		// The generator must only emit valid workloads; a violation here is
		// a bug in the generator itself, not in the system under test.
		panic(fmt.Sprintf("gen: seed %d produced invalid workload: %v", seed, err))
	}
	return g.w
}

func (g *genctx) table(name string) Table {
	n := g.between(2, 4)
	t := Table{Name: name}
	for i := 0; i < n; i++ {
		t.Cols = append(t.Cols, Col{
			Name: fmt.Sprintf("c%d", i),
			Kind: colKinds[g.pick(len(colKinds))],
		})
	}
	return t
}

func (g *genctx) lit(kind string) Lit {
	if g.pct(15) {
		return Null
	}
	switch kind {
	case "int":
		return IntLit(int64(g.between(-5, 20)))
	case "float":
		return FloatLit(float64(g.between(-20, 40)) * 0.25)
	case "varchar":
		return StrLit(stringPool[g.pick(len(stringPool))])
	default:
		return BoolLit(g.pct(50))
	}
}

// atomOps lists the comparison operators applicable to a column kind.
func atomOps(kind string) []string {
	if kind == "boolean" {
		return []string{"=", "<>"}
	}
	return []string{"=", "<>", "<", "<=", ">", ">="}
}

// where generates a predicate over t's columns. When allowSub is true, IN
// subqueries over base tables may appear.
func (g *genctx) where(t *Table, depth int, allowSub bool) *Where {
	if depth <= 0 || g.pct(55) {
		return &Where{Atom: g.atom(t, allowSub)}
	}
	switch g.pick(3) {
	case 0:
		n := g.between(2, 3)
		var kids []*Where
		for i := 0; i < n; i++ {
			kids = append(kids, g.where(t, depth-1, allowSub))
		}
		return &Where{And: kids}
	case 1:
		n := g.between(2, 3)
		var kids []*Where
		for i := 0; i < n; i++ {
			kids = append(kids, g.where(t, depth-1, allowSub))
		}
		return &Where{Or: kids}
	default:
		return &Where{Not: g.where(t, depth-1, allowSub)}
	}
}

func (g *genctx) atom(t *Table, allowSub bool) *Atom {
	ci := g.pick(len(t.Cols))
	c := t.Cols[ci]
	roll := g.pick(100)
	switch {
	case roll < 12:
		return &Atom{Col: c.Name, Op: "isnull"}
	case roll < 24:
		return &Atom{Col: c.Name, Op: "notnull"}
	case roll < 36 && allowSub:
		// col IN (select samekind from base [where literal-only]): pick a
		// same-kind column anywhere in the schema.
		type cand struct {
			t  *Table
			cn string
		}
		var cands []cand
		for i := range g.w.Tables {
			st := &g.w.Tables[i]
			for _, sc := range st.Cols {
				if sc.Kind == c.Kind {
					cands = append(cands, cand{st, sc.Name})
				}
			}
		}
		if len(cands) > 0 {
			k := cands[g.pick(len(cands))]
			sub := &SubQuery{Col: k.cn, Src: Source{Table: k.t.Name}}
			if g.pct(50) {
				sub.Where = g.where(k.t, 0, false)
			}
			return &Atom{Col: c.Name, Op: "in", Sub: sub}
		}
		fallthrough
	default:
		ops := atomOps(c.Kind)
		return &Atom{Col: c.Name, Op: ops[g.pick(len(ops))], Lit: g.litNoNull(c.Kind)}
	}
}

// litNoNull is lit without the NULL branch (comparisons against NULL are
// constant-UNKNOWN, which generates dead predicates).
func (g *genctx) litNoNull(kind string) Lit {
	for {
		l := g.lit(kind)
		if l.K != "n" {
			return l
		}
	}
}

// transSources lists the transition tables licensed by the rule's
// predicates (Section 3's restriction).
func transSources(r *Rule) []Source {
	var out []Source
	for _, p := range r.Preds {
		switch p.Op {
		case "inserted":
			out = append(out, Source{Trans: "inserted", Table: p.Table})
		case "deleted":
			out = append(out, Source{Trans: "deleted", Table: p.Table})
		case "updated":
			out = append(out, Source{Trans: "old", Table: p.Table, Column: p.Column})
			out = append(out, Source{Trans: "new", Table: p.Table, Column: p.Column})
		}
	}
	return out
}

func (g *genctx) preds(nTables int) []Pred {
	n := 1
	if g.pct(25) {
		n = 2
	}
	var out []Pred
	for i := 0; i < n; i++ {
		t := &g.w.Tables[g.pick(nTables)]
		p := Pred{Table: t.Name}
		switch g.pick(3) {
		case 0:
			p.Op = "inserted"
		case 1:
			p.Op = "deleted"
		default:
			p.Op = "updated"
			if g.pct(50) {
				p.Column = t.Cols[g.pick(len(t.Cols))].Name
			}
		}
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// rule generates a general rule (index ri of nRules). Action targets
// follow the trigger-graph discipline described at the top of the file.
func (g *genctx) rule(ri, nRules int) Rule {
	nBase := len(g.w.Tables)
	r := Rule{Name: fmt.Sprintf("r%d", ri)}
	switch g.pick(10) {
	case 0:
		r.Scope = "considered"
	case 1:
		r.Scope = "triggered"
	}
	r.Preds = g.preds(nBase)
	if g.pct(80) {
		r.Cond = g.cond(&r)
	}
	if g.pct(10) {
		r.Rollback = true
		return r
	}
	nActs := 1
	if g.pct(30) {
		nActs = 2
	}
	for i := 0; i < nActs; i++ {
		r.Action = append(r.Action, g.actionStmt(&r))
	}
	return r
}

// cond generates a rule condition over either a licensed transition table
// (common: the paper's rules are usually about "the rows just changed") or
// a base table; ~30% of the time it is a multi-source join condition that
// routes the rule's consideration through the cost-based join planner.
func (g *genctx) cond(r *Rule) *Cond {
	if g.pct(30) {
		if jc := g.joinCond(r); jc != nil {
			return jc
		}
	}
	var src Source
	ts := transSources(r)
	if len(ts) > 0 && g.pct(65) {
		src = ts[g.pick(len(ts))]
	} else {
		src = Source{Table: r.Preds[g.pick(len(r.Preds))].Table}
	}
	t := g.w.Table(src.Table)
	c := &Cond{Sub: SubQuery{Src: src}}
	if g.pct(60) {
		c.Sub.Where = g.where(t, 1, src.Trans == "")
	}
	switch g.pick(4) {
	case 0:
		c.Kind = "exists"
	case 1:
		c.Kind = "notexists"
	default:
		c.Kind = "agg"
		// count(*) over anything; sum/min/max over a numeric column.
		var numeric []string
		for _, col := range t.Cols {
			if col.Kind == "int" || col.Kind == "float" {
				numeric = append(numeric, col.Name)
			}
		}
		if len(numeric) == 0 || g.pct(40) {
			c.Agg = "count"
			c.Op = []string{">", ">=", "=", "<"}[g.pick(4)]
			c.Lit = IntLit(int64(g.between(0, 3)))
		} else {
			c.Agg = []string{"sum", "min", "max"}[g.pick(3)]
			c.Sub.Col = numeric[g.pick(len(numeric))]
			c.Op = []string{">", ">=", "<", "<="}[g.pick(4)]
			c.Lit = IntLit(int64(g.between(-3, 10)))
		}
	}
	return c
}

// joinCond generates a 2- or 3-source join condition: a chain of equi-join
// conjuncts over transition tables (mostly) and at most one base table (so
// the oracle's naive nested-loop evaluation stays bounded by the small
// transition-table sizes), plus occasional literal atoms. Returns nil when
// the rule licenses no transition source or a consecutive source pair has
// no join-comparable column pair; the caller falls back to a single-source
// condition.
func (g *genctx) joinCond(r *Rule) *Cond {
	ts := transSources(r)
	if len(ts) == 0 {
		return nil
	}
	n := 2
	if g.pct(30) {
		n = 3
	}
	c := &Cond{Kind: "join"}
	if g.pct(40) {
		c.Kind = "notjoin"
	}
	baseUsed := false
	for i := 0; i < n; i++ {
		var src Source
		if baseUsed || g.pct(70) {
			src = ts[g.pick(len(ts))]
		} else {
			src = Source{Table: g.w.Tables[g.pick(len(g.w.Tables))].Name}
			baseUsed = true
		}
		c.Srcs = append(c.Srcs, JoinSrc{Src: src, Alias: fmt.Sprintf("j%d", i)})
	}
	for i := 1; i < n; i++ {
		on, ok := g.joinOn(c, i-1, i)
		if !ok {
			return nil
		}
		c.On = append(c.On, on)
	}
	// Occasionally close the chain into a cycle (extra selectivity, and a
	// join graph that is not a pure path).
	if n == 3 && g.pct(25) {
		if on, ok := g.joinOn(c, 0, 2); ok {
			c.On = append(c.On, on)
		}
	}
	if g.pct(40) {
		si := g.pick(n)
		t := g.w.Table(c.Srcs[si].Src.Table)
		col := t.Cols[g.pick(len(t.Cols))]
		a := JoinAtom{Src: si, Col: col.Name}
		roll := g.pick(100)
		switch {
		case roll < 15:
			a.Op = "isnull"
		case roll < 30:
			a.Op = "notnull"
		default:
			ops := atomOps(col.Kind)
			a.Op = ops[g.pick(len(ops))]
			a.Lit = g.litNoNull(col.Kind)
		}
		c.Atoms = append(c.Atoms, a)
	}
	return c
}

// joinOn picks a join-comparable column pair between sources li and ri of
// the condition under construction.
func (g *genctx) joinOn(c *Cond, li, ri int) (JoinOn, bool) {
	lt := g.w.Table(c.Srcs[li].Src.Table)
	rt := g.w.Table(c.Srcs[ri].Src.Table)
	type pair struct{ l, r string }
	var pairs []pair
	for _, lc := range lt.Cols {
		for _, rc := range rt.Cols {
			if joinComparable(lc.Kind, rc.Kind) {
				pairs = append(pairs, pair{lc.Name, rc.Name})
			}
		}
	}
	if len(pairs) == 0 {
		return JoinOn{}, false
	}
	p := pairs[g.pick(len(pairs))]
	return JoinOn{LSrc: li, LCol: p.l, RSrc: ri, RCol: p.r}, true
}

// actionTarget picks the target table for rule r's action statement:
// ~75% a table watched neither by r nor by any earlier rule (so cascades
// flow "downhill" toward later rules and terminate), ~25% any table
// (self-triggering and runaway coverage).
func (g *genctx) actionTarget(r *Rule) *Table {
	if g.pct(75) {
		if safe := g.safeTargets(r); len(safe) > 0 {
			return safe[g.pick(len(safe))]
		}
	}
	return &g.w.Tables[g.pick(len(g.w.Tables))]
}

func (g *genctx) actionStmt(r *Rule) Stmt {
	t := g.actionTarget(r)
	roll := g.pick(100)
	switch {
	case roll < 35:
		return g.insertStmt(t)
	case roll < 60:
		// Insert-select from a licensed transition table, but only into a
		// table watched neither by r nor by any rule generated so far.
		// Without this restriction a firing can re-trigger a rule with a
		// transition table as large as everything inserted so far, and row
		// counts grow exponentially in the transition cap; confining
		// insert-select rows to flow strictly "forward" (only later rules
		// may watch the target) makes the amplification graph acyclic.
		ts := transSources(r)
		safe := g.safeTargets(r)
		if len(ts) > 0 && len(safe) > 0 {
			return g.insSelStmt(safe[g.pick(len(safe))], ts[g.pick(len(ts))])
		}
		return g.insertStmt(t)
	case roll < 80:
		return g.updateStmt(t)
	default:
		return g.deleteStmt(t)
	}
}

// safeTargets lists the tables watched neither by r nor by any rule
// generated before it.
func (g *genctx) safeTargets(r *Rule) []*Table {
	var safe []*Table
	for i := range g.w.Tables {
		t := &g.w.Tables[i]
		ok := true
		for _, p := range r.Preds {
			if p.Table == t.Name {
				ok = false
			}
		}
		for rj := range g.w.Rules {
			for _, p := range g.w.Rules[rj].Preds {
				if p.Table == t.Name {
					ok = false
				}
			}
		}
		if ok {
			safe = append(safe, t)
		}
	}
	return safe
}

func (g *genctx) insertStmt(t *Table) Stmt {
	n := g.between(1, 3)
	s := Stmt{Kind: "insert", Table: t.Name}
	for i := 0; i < n; i++ {
		var row []Lit
		for _, c := range t.Cols {
			row = append(row, g.lit(c.Kind))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

func (g *genctx) insSelStmt(t *Table, src Source) Stmt {
	srcT := g.w.Table(src.Table)
	s := Stmt{Kind: "inssel", Table: t.Name, Src: &src}
	for _, c := range t.Cols {
		// Project a same-kind source column when one exists, otherwise a
		// literal of the target kind (inserting, say, a varchar into an int
		// column would error and mask the interesting behavior).
		var match []string
		for _, sc := range srcT.Cols {
			if sc.Kind == c.Kind {
				match = append(match, sc.Name)
			}
		}
		if len(match) > 0 && g.pct(70) {
			s.Proj = append(s.Proj, ProjItem{Col: match[g.pick(len(match))]})
		} else {
			s.Proj = append(s.Proj, ProjItem{Lit: g.lit(c.Kind)})
		}
	}
	if g.pct(50) {
		s.Where = g.where(srcT, 1, src.Trans == "")
	}
	return s
}

func (g *genctx) updateStmt(t *Table) Stmt {
	s := Stmt{Kind: "update", Table: t.Name}
	n := 1
	if g.pct(30) && len(t.Cols) > 1 {
		n = 2
	}
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		c := t.Cols[g.pick(len(t.Cols))]
		if used[c.Name] {
			continue
		}
		used[c.Name] = true
		item := SetItem{Col: c.Name}
		if (c.Kind == "int" || c.Kind == "float") && g.pct(50) {
			// col = col ± lit (self-reference keeps kinds aligned).
			item.From = c.Name
			item.ArithOp = []string{"+", "-"}[g.pick(2)]
			item.Lit = g.litNoNull(c.Kind)
		} else {
			item.Lit = g.lit(c.Kind)
		}
		s.Set = append(s.Set, item)
	}
	if g.pct(80) {
		s.Where = g.where(t, 1, true)
	}
	return s
}

func (g *genctx) deleteStmt(t *Table) Stmt {
	s := Stmt{Kind: "delete", Table: t.Name}
	if g.pct(85) {
		s.Where = g.where(t, 1, true)
	}
	return s
}

// stmt generates one external (transaction) operation over any table.
func (g *genctx) stmt() Stmt {
	t := &g.w.Tables[g.pick(len(g.w.Tables))]
	roll := g.pick(100)
	switch {
	case roll < 45:
		return g.insertStmt(t)
	case roll < 55:
		// Base-table insert-select (cross-table copy). A table never feeds
		// itself: a self-copy doubles the table per statement, and chains of
		// transactions would compound that into an exponential row count.
		var others []*Table
		for i := range g.w.Tables {
			if g.w.Tables[i].Name != t.Name {
				others = append(others, &g.w.Tables[i])
			}
		}
		if len(others) == 0 {
			return g.insertStmt(t)
		}
		return g.insSelStmt(t, Source{Table: others[g.pick(len(others))].Name})
	case roll < 80:
		return g.updateStmt(t)
	default:
		return g.deleteStmt(t)
	}
}

// orderFreeRule generates rule ri under the restricted shape that markOrder
// certifies: condition only over own transition tables with literal-only
// predicates, action confined to the rule's private sink table.
func (g *genctx) orderFreeRule(ri, nTables int) Rule {
	r := Rule{Name: fmt.Sprintf("r%d", ri)}
	r.Preds = g.preds(nTables) // preds over the normal (non-sink) tables
	if g.pct(70) {
		ts := transSources(&r)
		src := ts[g.pick(len(ts))]
		t := g.w.Table(src.Table)
		c := &Cond{Sub: SubQuery{Src: src}}
		if g.pct(60) {
			c.Sub.Where = g.where(t, 1, false)
		}
		if g.pct(50) {
			c.Kind = "exists"
		} else {
			c.Kind = "agg"
			c.Agg = "count"
			c.Op = ">"
			c.Lit = IntLit(0)
		}
		r.Cond = c
	}
	sink := g.w.Table(fmt.Sprintf("s%d", ri))
	nActs := 1
	if g.pct(30) {
		nActs = 2
	}
	for i := 0; i < nActs; i++ {
		roll := g.pick(100)
		switch {
		case roll < 40:
			r.Action = append(r.Action, g.insertStmt(sink))
		case roll < 70:
			ts := transSources(&r)
			r.Action = append(r.Action, g.insSelStmt(sink, ts[g.pick(len(ts))]))
		case roll < 85:
			s := g.updateStmt(sink)
			s.Where = g.where(sink, 1, false) // literal atoms only
			r.Action = append(r.Action, s)
		default:
			s := g.deleteStmt(sink)
			s.Where = g.where(sink, 1, false)
			r.Action = append(r.Action, s)
		}
	}
	return r
}

// markOrder conservatively certifies order independence of the final
// database state (as a values-only multiset): no rollback rules, rule
// conditions read only the rule's own transition tables (no base-table
// reads, no subqueries), action targets are unwatched by any rule and
// pairwise disjoint across rules, and action reads are confined to
// transition tables or the statement's own target. Under these conditions
// every rule fires at most once per external transition with the same net
// transition info regardless of selection order, and writes never feed
// another rule, so all selection orders commute.
func (w *Workload) markOrder() bool {
	watched := map[string]bool{}
	for ri := range w.Rules {
		for _, p := range w.Rules[ri].Preds {
			watched[p.Table] = true
		}
	}
	owner := map[string]int{}
	for ri := range w.Rules {
		r := &w.Rules[ri]
		if r.Rollback {
			return false
		}
		if r.Cond != nil {
			if len(r.Cond.Srcs) > 0 {
				// Join conditions may read base tables and see other rules'
				// writes; certify nothing about them.
				return false
			}
			if r.Cond.Sub.Src.Trans == "" {
				return false
			}
			if whereHasSub(r.Cond.Sub.Where) {
				return false
			}
		}
		for si := range r.Action {
			s := &r.Action[si]
			if watched[s.Table] {
				return false
			}
			if prev, ok := owner[s.Table]; ok && prev != ri {
				return false
			}
			owner[s.Table] = ri
			if s.Kind == "inssel" && s.Src.Trans == "" && s.Src.Table != s.Table {
				return false
			}
			if !whereSubsConfined(s.Where, s.Table) {
				return false
			}
		}
	}
	return true
}

func whereHasSub(wh *Where) bool {
	if wh == nil {
		return false
	}
	if wh.Atom != nil {
		return wh.Atom.Sub != nil
	}
	for _, c := range wh.And {
		if whereHasSub(c) {
			return true
		}
	}
	for _, c := range wh.Or {
		if whereHasSub(c) {
			return true
		}
	}
	return whereHasSub(wh.Not)
}

// whereSubsConfined reports whether every IN subquery in the tree reads a
// transition table or the given table.
func whereSubsConfined(wh *Where, table string) bool {
	if wh == nil {
		return true
	}
	if wh.Atom != nil {
		if wh.Atom.Sub == nil {
			return true
		}
		src := wh.Atom.Sub.Src
		return src.Trans != "" || src.Table == table
	}
	for _, c := range wh.And {
		if !whereSubsConfined(c, table) {
			return false
		}
	}
	for _, c := range wh.Or {
		if !whereSubsConfined(c, table) {
			return false
		}
	}
	return whereSubsConfined(wh.Not, table)
}
