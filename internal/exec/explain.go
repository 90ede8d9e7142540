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
	var lines []string
	var err error
	switch s := stmt.(type) {
	case *sqlast.Select:
		lines, err = e.explainSelect(s, 0)
	case *sqlast.Insert:
		lines, err = e.explainInsert(s)
	case *sqlast.Delete:
		lines, err = e.explainMatch("delete from "+s.Table, &sqlast.TableRef{Table: s.Table, Alias: s.Alias}, s.Where)
	case *sqlast.Update:
		lines, err = e.explainMatch("update "+s.Table, &sqlast.TableRef{Table: s.Table, Alias: s.Alias}, s.Where)
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
func (e *Env) explainSelect(sel *sqlast.Select, depth int) ([]string, error) {
	ind := strings.Repeat("  ", depth)
	mode := "cost-based planner"
	if e.Naive {
		mode = "naive"
	}
	lines := []string{ind + "select (" + mode + ")"}
	add := func(extra int, s string) {
		lines = append(lines, ind+strings.Repeat("  ", extra+1)+s)
	}

	infos := e.planBindings(sel.From)
	paths := make([]accessPath, len(sel.From))
	for i, tr := range sel.From {
		p, err := e.explainAccess(tr, i, sel.Where, infos)
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
	if selectAggregates(sel) {
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
		for _, jl := range e.explainJoins(sel, infos, paths) {
			add(0, jl)
		}
	}
	return lines, nil
}

// explainAccess mirrors materializeFrom's choice for one FROM entry (or
// the single table of a DELETE/UPDATE), using ClassifyProbe to cost the
// probe at plan time — including the 2^53 integer-keyspace fallback, which
// is reported (and costed) as a scan.
func (e *Env) explainAccess(tr *sqlast.TableRef, target int, where sqlast.Expr, infos []fromBinding) (accessPath, error) {
	name := tr.Binding()
	if tr.Trans != sqlast.TransNone {
		return accessPath{desc: "transition scan " + strings.ToLower(tr.String()) + " (rows ?)", rows: 1}, nil
	}
	schema := infos[target].schema
	if schema == nil {
		return accessPath{}, fmt.Errorf("exec: unknown table %q", tr.Table)
	}
	rows, err := e.Store.Count(schema.Name)
	if err != nil {
		return accessPath{}, err
	}
	label := schema.Name
	if name != schema.Name {
		label += " " + name
	}
	seq := accessPath{desc: fmt.Sprintf("seq scan %s (rows %d)", label, rows), rows: float64(rows)}
	probe := e.indexProbeFor(where, target, infos, nil)
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
func (e *Env) explainJoins(sel *sqlast.Select, infos []fromBinding, paths []accessPath) []string {
	prels := make([]*relation, len(infos))
	rows := make([]float64, len(infos))
	for i, fb := range infos {
		rel := &relation{binding: fb.binding}
		if fb.schema != nil {
			rel.table = fb.schema.Name
			rel.cols = fb.schema.ColumnNames()
		}
		rel.trans = sel.From[i].Trans != sqlast.TransNone
		prels[i] = rel
		rows[i] = paths[i].rows
	}
	plan := e.planJoins(sel.Where, prels, rows, e.statsDistinctEstimator(prels))
	if plan == nil {
		lines := []string{"nested loop (FROM order)"}
		for _, p := range paths {
			lines = append(lines, "  "+p.desc)
		}
		return lines
	}

	// Render the left-deep tree from the root down.
	lines := []string{paths[plan.start].desc}
	for _, st := range plan.steps {
		var on []string
		for _, c := range st.conds {
			eq := fmt.Sprintf("%s.%s = %s.%s",
				prels[c.lrel].binding, prels[c.lrel].cols[c.lcol],
				prels[c.rrel].binding, prels[c.rrel].cols[c.rcol])
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
func (e *Env) statsDistinctEstimator(rels []*relation) func(rel, col int) float64 {
	return func(rel, col int) float64 {
		r := rels[rel]
		if !r.trans && r.table != "" {
			if cs, err := e.Store.ColumnStats(r.table, col); err == nil {
				return float64(cs.Distinct)
			}
		}
		return 1
	}
}

func (e *Env) explainInsert(s *sqlast.Insert) ([]string, error) {
	if _, err := e.lookupSchema(s.Table); err != nil {
		return nil, err
	}
	if s.Query != nil {
		lines := []string{fmt.Sprintf("insert into %s (from select)", s.Table)}
		sub, err := e.explainSelect(s.Query, 1)
		if err != nil {
			return nil, err
		}
		return append(lines, sub...), nil
	}
	return []string{fmt.Sprintf("insert into %s (%d rows)", s.Table, len(s.Rows))}, nil
}

// explainMatch renders the access path of a DELETE/UPDATE predicate scan
// (matchTuples in dml.go) through explainAccess.
func (e *Env) explainMatch(head string, tr *sqlast.TableRef, where sqlast.Expr) ([]string, error) {
	schema, err := e.lookupSchema(tr.Table)
	if err != nil {
		return nil, err
	}
	p, err := e.explainAccess(tr, 0, where, []fromBinding{{binding: tr.Binding(), schema: schema}})
	if err != nil {
		return nil, err
	}
	lines := []string{head}
	if where != nil {
		lines = append(lines, "  filter "+where.String())
	}
	return append(lines, "  "+p.desc), nil
}
