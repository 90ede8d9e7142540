package exec

// EXPLAIN: render the plan the executor would choose for a statement,
// without executing it. The output is one "plan" column whose rows are the
// lines of an indented operator tree — access paths with cardinality
// estimates from the storage layer's statistics, the cost-based join
// order (the executor's own decision, planJoins), and the
// post-processing pipeline (filter, aggregate, distinct, order by, limit).

import (
	"fmt"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// Explain renders the chosen plan for a SELECT or DML statement.
func (e *Env) Explain(stmt sqlast.Statement) (*Result, error) {
	clear(e.memo)
	b := Bind(e.Store.Catalog(), stmt)
	var lines []string
	var err error
	switch s := stmt.(type) {
	case *sqlast.Select:
		lines, err = e.explainSelect(b.sel, 0)
	case *sqlast.Insert:
		lines, err = e.explainInsert(s, b.dml)
	case *sqlast.Delete:
		lines, err = e.explainMatch("delete from "+s.Table, b.dml, s.Where)
	case *sqlast.Update:
		lines, err = e.explainMatch("update "+s.Table, b.dml, s.Where)
	default:
		return nil, fmt.Errorf("exec: cannot explain %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}, Rows: make([]storage.Row, len(lines))}
	for i, l := range lines {
		res.Rows[i] = storage.Row{value.NewString(l)}
	}
	return res, nil
}

// accessPath is the plan-time view of one FROM entry.
type accessPath struct {
	desc string  // rendered node, without indentation
	rows float64 // estimated input cardinality
}

// explainSelect renders one query block at the given indent depth.
func (e *Env) explainSelect(bs *boundSelect, depth int) ([]string, error) {
	sel := bs.sel
	ind := strings.Repeat("  ", depth)
	mode := "cost-based planner"
	if e.Naive {
		mode = "naive"
	}
	lines := []string{ind + "select (" + mode + ")"}
	add := func(extra int, s string) {
		lines = append(lines, ind+strings.Repeat("  ", extra+1)+s)
	}

	fr := e.newFrame(len(bs.from), e.rootFrame())
	paths := make([]accessPath, len(bs.from))
	for i := range bs.from {
		p, err := e.explainAccess(&bs.block, i, fr)
		if err != nil {
			return nil, err
		}
		paths[i] = p
	}

	// Post-processing pipeline, outermost first.
	if sel.Limit != nil {
		add(0, "limit "+sel.Limit.String())
	}
	if len(sel.OrderBy) > 0 {
		parts := make([]string, len(sel.OrderBy))
		for i, ob := range sel.OrderBy {
			parts[i] = ob.Expr.String()
			if ob.Desc {
				parts[i] += " DESC"
			}
		}
		add(0, "order by "+strings.Join(parts, ", "))
	}
	if sel.Distinct {
		add(0, "distinct")
	}
	if bs.agg {
		if len(sel.GroupBy) > 0 {
			parts := make([]string, len(sel.GroupBy))
			for i, g := range sel.GroupBy {
				parts[i] = g.String()
			}
			add(0, "aggregate group by "+strings.Join(parts, ", "))
		} else {
			add(0, "aggregate (single group)")
		}
	}
	if sel.Where != nil {
		add(0, "filter "+sel.Where.String())
	}

	// Join tree (or the single/zero-relation base).
	switch {
	case len(sel.From) == 0:
		add(0, "no from (one empty binding)")
	case len(sel.From) == 1:
		add(0, paths[0].desc)
	default:
		for _, jl := range e.explainJoins(&bs.block, paths) {
			add(0, jl)
		}
	}
	return lines, nil
}

// explainAccess mirrors fill's choice for FROM entry target of blk (or
// the single table of a DELETE/UPDATE), using ClassifyProbe to cost the
// probe at plan time — including the 2^53 integer-keyspace fallback, which
// is reported (and costed) as a scan.
func (e *Env) explainAccess(blk *block, target int, fr *frame) (accessPath, error) {
	f := &blk.from[target]
	if f.tr.Trans != sqlast.TransNone {
		return accessPath{desc: "transition scan " + strings.ToLower(f.tr.String()) + " (rows ?)", rows: 1}, nil
	}
	schema := f.schema
	if schema == nil {
		return accessPath{}, fmt.Errorf("exec: unknown table %q", f.tr.Table)
	}
	rows, err := e.Store.Count(schema.Name)
	if err != nil {
		return accessPath{}, err
	}
	label := schema.Name
	if name := f.tr.Binding(); name != schema.Name {
		label += " " + name
	}
	seq := accessPath{desc: fmt.Sprintf("seq scan %s (rows %d)", label, rows), rows: float64(rows)}
	probe := e.probeFor(blk, target, fr)
	if probe == nil {
		return seq, nil
	}
	col := schema.Columns[probe.col].Name
	switch e.Store.ClassifyProbe(schema.Name, probe.col, probe.vals...) {
	case storage.ProbeFallback:
		seq.desc = fmt.Sprintf("seq scan %s (rows %d; index on %s cannot answer probe exactly, costed as scan)", label, rows, col)
		return seq, nil
	case storage.ProbeIndexed:
		est := float64(rows)
		if cs, err := e.Store.ColumnStats(schema.Name, probe.col); err == nil && cs.Distinct > 0 {
			est = float64(rows) / float64(cs.Distinct) * float64(len(probe.vals))
			if est > float64(rows) {
				est = float64(rows)
			}
		}
		what := fmt.Sprintf("%s = %s", col, probe.vals[0])
		if len(probe.vals) != 1 {
			what = fmt.Sprintf("%s IN (%d values)", col, len(probe.vals))
		}
		return accessPath{
			desc: fmt.Sprintf("index probe %s (%s) (est rows %.0f)", label, what, est),
			rows: est,
		}, nil
	default:
		return seq, nil
	}
}

// explainJoins renders the join tree for a multi-relation block: the plan
// planJoins returns — the same decision the executor makes — or, when it
// returns nil, the nested-loop (FROM-order) tree.
func (e *Env) explainJoins(blk *block, paths []accessPath) []string {
	rows := make([]float64, len(paths))
	for i, p := range paths {
		rows[i] = p.rows
	}
	plan := e.planJoins(blk.equi, rows, e.statsDistinctEstimator(blk))
	if plan == nil {
		lines := []string{"nested loop (FROM order)"}
		for _, p := range paths {
			lines = append(lines, "  "+p.desc)
		}
		return lines
	}

	// Render the left-deep tree from the root down.
	column := func(rel, col int) string {
		return blk.from[rel].binding + "." + blk.from[rel].schema.Columns[col].Name
	}
	lines := []string{paths[plan.start].desc}
	for _, st := range plan.steps {
		var on []string
		for _, c := range st.conds {
			eq := column(c.lrel, c.lcol) + " = " + column(c.rrel, c.rcol)
			if c.exact {
				eq += " [exact]"
			}
			on = append(on, eq)
		}
		head := fmt.Sprintf("hash join (%s) (est rows %.0f)", strings.Join(on, " and "), st.est)
		if len(st.conds) == 0 {
			head = fmt.Sprintf("cross join (est rows %.0f)", st.est)
		}
		next := []string{head}
		for _, l := range lines {
			next = append(next, "  "+l)
		}
		next = append(next, "  "+paths[st.right].desc)
		lines = next
	}
	return lines
}

// statsDistinctEstimator is the plan-time (no materialized rows) variant
// of distinctEstimator: base tables use column statistics, everything else
// estimates a single distinct value.
func (e *Env) statsDistinctEstimator(blk *block) func(rel, col int) float64 {
	return func(rel, col int) float64 {
		if f := &blk.from[rel]; f.tr.Trans == sqlast.TransNone && f.schema != nil {
			if cs, err := e.Store.ColumnStats(f.schema.Name, col); err == nil {
				return float64(cs.Distinct)
			}
		}
		return 1
	}
}

func (e *Env) explainInsert(s *sqlast.Insert, d *boundDML) ([]string, error) {
	if d.schema == nil {
		return nil, d.err
	}
	if s.Query != nil {
		lines := []string{fmt.Sprintf("insert into %s (from select)", s.Table)}
		sub, err := e.explainSelect(d.query, 1)
		if err != nil {
			return nil, err
		}
		return append(lines, sub...), nil
	}
	return []string{fmt.Sprintf("insert into %s (%d rows)", s.Table, len(s.Rows))}, nil
}

// explainMatch renders the access path of a DELETE/UPDATE predicate scan
// (matchTuples in dml.go) through explainAccess.
func (e *Env) explainMatch(head string, d *boundDML, where sqlast.Expr) ([]string, error) {
	if d.schema == nil {
		return nil, d.err
	}
	p, err := e.explainAccess(&d.target, 0, e.newFrame(1, e.rootFrame()))
	if err != nil {
		return nil, err
	}
	lines := []string{head}
	if where != nil {
		lines = append(lines, "  filter "+where.String())
	}
	return append(lines, "  "+p.desc), nil
}
