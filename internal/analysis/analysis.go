// Package analysis implements the static rule analysis facility proposed in
// Section 6 of the paper: "the programmer might benefit from knowing that a
// set of rules may create an infinite loop, or from knowing that ordering
// between certain rules may affect the final database state."
//
// The analysis is conservative (may-analysis): it builds a triggering graph
// whose edge R1 → R2 means "some operation of R1's action may satisfy one
// of R2's basic transition predicates", reports self-loops and cycles as
// potential infinite loops, and reports unordered pairs of rules that can
// be triggered together and whose actions interfere as potential ordering
// conflicts.
package analysis

import (
	"sort"
	"strings"

	"sopr/internal/sqlast"
)

// RuleDef is the analyzable surface of a rule definition.
type RuleDef struct {
	Name      string
	Preds     []sqlast.TransPred
	Condition sqlast.Expr
	Action    sqlast.RuleAction
}

// Edge is one arc of the triggering graph: From's action may trigger To.
type Edge struct {
	From, To string
}

// Report is the analysis result.
type Report struct {
	// Edges is the triggering graph, sorted.
	Edges []Edge
	// SelfLoops lists rules whose own action may re-trigger them — the
	// self-triggering pattern of Section 4.1, legitimate for recursive
	// rules (Example 4.1) but a divergence risk flagged by footnote 7.
	SelfLoops []string
	// Cycles lists strongly connected components of two or more rules:
	// multi-rule potential infinite loops.
	Cycles [][]string
	// Conflicts lists unordered pairs that may be triggered simultaneously
	// and whose actions interfere; the final state may depend on the rule
	// selection order (Section 4.4).
	Conflicts [][2]string
	// ExternalActions lists rules whose action calls an external procedure
	// — their writes are unknown, so they are treated as writing nothing;
	// reported so users know the analysis is incomplete for them.
	ExternalActions []string
}

// write is one change an action may make.
type write struct {
	op    sqlast.TransPredOp // PredInserted / PredDeleted / PredUpdated
	table string
	cols  map[string]bool // for updates; nil means every column
}

// Analyze builds the report. higher reports declared priority (a strictly
// before b); it may be nil when no priorities exist.
func Analyze(defs []RuleDef, higher func(a, b string) bool) *Report {
	if higher == nil {
		higher = func(a, b string) bool { return false }
	}
	rep := &Report{}

	writes := make(map[string][]write, len(defs))
	reads := make(map[string]map[string]bool, len(defs))
	for _, d := range defs {
		if d.Action.Call != "" {
			rep.ExternalActions = append(rep.ExternalActions, d.Name)
		}
		writes[d.Name] = actionWrites(d.Action)
		reads[d.Name] = ruleReads(d)
	}

	// Triggering graph.
	adj := make(map[string][]string, len(defs))
	for _, from := range defs {
		for _, to := range defs {
			if mayTrigger(writes[from.Name], to.Preds) {
				rep.Edges = append(rep.Edges, Edge{From: from.Name, To: to.Name})
				if from.Name == to.Name {
					rep.SelfLoops = append(rep.SelfLoops, from.Name)
				} else {
					adj[from.Name] = append(adj[from.Name], to.Name)
				}
			}
		}
	}
	sort.Slice(rep.Edges, func(i, j int) bool {
		if rep.Edges[i].From != rep.Edges[j].From {
			return rep.Edges[i].From < rep.Edges[j].From
		}
		return rep.Edges[i].To < rep.Edges[j].To
	})
	sort.Strings(rep.SelfLoops)

	// Multi-rule cycles: strongly connected components of size ≥ 2.
	for _, scc := range stronglyConnected(ruleNames(defs), adj) {
		if len(scc) >= 2 {
			sort.Strings(scc)
			rep.Cycles = append(rep.Cycles, scc)
		}
	}
	sort.Slice(rep.Cycles, func(i, j int) bool {
		return strings.Join(rep.Cycles[i], ",") < strings.Join(rep.Cycles[j], ",")
	})

	// Ordering conflicts.
	for i, a := range defs {
		for _, b := range defs[i+1:] {
			if higher(a.Name, b.Name) || higher(b.Name, a.Name) {
				continue
			}
			if !predsOverlap(a.Preds, b.Preds) {
				continue
			}
			if interfere(writes[a.Name], reads[b.Name]) || interfere(writes[b.Name], reads[a.Name]) ||
				writesCollide(writes[a.Name], writes[b.Name]) {
				pair := [2]string{a.Name, b.Name}
				if pair[0] > pair[1] {
					pair[0], pair[1] = pair[1], pair[0]
				}
				rep.Conflicts = append(rep.Conflicts, pair)
			}
		}
	}
	sort.Slice(rep.Conflicts, func(i, j int) bool {
		if rep.Conflicts[i][0] != rep.Conflicts[j][0] {
			return rep.Conflicts[i][0] < rep.Conflicts[j][0]
		}
		return rep.Conflicts[i][1] < rep.Conflicts[j][1]
	})
	return rep
}

func ruleNames(defs []RuleDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// actionWrites extracts the changes a rule's action may make. External
// procedures are opaque: no writes are assumed (reported separately).
func actionWrites(a sqlast.RuleAction) []write {
	var out []write
	for _, op := range a.Block {
		switch s := op.(type) {
		case *sqlast.Insert:
			out = append(out, write{op: sqlast.PredInserted, table: s.Table})
		case *sqlast.Delete:
			out = append(out, write{op: sqlast.PredDeleted, table: s.Table})
		case *sqlast.Update:
			cols := make(map[string]bool, len(s.Set))
			for _, as := range s.Set {
				cols[as.Column] = true
			}
			out = append(out, write{op: sqlast.PredUpdated, table: s.Table, cols: cols})
		}
	}
	return out
}

// ruleReads collects the base tables a rule's condition and action read.
func ruleReads(d RuleDef) map[string]bool {
	tables := make(map[string]bool)
	collect := func(tr *sqlast.TableRef) {
		if tr.Trans == sqlast.TransNone {
			tables[tr.Table] = true
		}
	}
	sqlast.ExprTableRefs(d.Condition, collect)
	for _, op := range d.Action.Block {
		sqlast.StmtTableRefs(op, collect)
		// The targets of action DML are also "read" (their predicates
		// filter the table's rows).
		if t := sqlast.StmtTarget(op); t != "" {
			tables[t] = true
		}
	}
	return tables
}

// mayTrigger reports whether any write can satisfy any predicate.
func mayTrigger(ws []write, preds []sqlast.TransPred) bool {
	for _, w := range ws {
		for _, p := range preds {
			if w.table != p.Table {
				continue
			}
			switch p.Op {
			case sqlast.PredInserted:
				if w.op == sqlast.PredInserted {
					return true
				}
			case sqlast.PredDeleted:
				if w.op == sqlast.PredDeleted {
					return true
				}
			case sqlast.PredUpdated:
				if w.op == sqlast.PredUpdated && (p.Column == "" || w.cols == nil || w.cols[p.Column]) {
					return true
				}
				// insert-then-update composition cannot resurrect an
				// update predicate; inserts alone never satisfy UPDATED.
			case sqlast.PredSelected:
				// Writes do not satisfy SELECTED; reads would, but rule
				// actions reading tables are handled conservatively by the
				// conflict analysis, not the triggering graph.
			}
		}
	}
	return false
}

// predsOverlap reports whether one external change could trigger both rules
// at once.
func predsOverlap(a, b []sqlast.TransPred) bool {
	for _, pa := range a {
		for _, pb := range b {
			if pa.Table != pb.Table {
				continue
			}
			if pa.Op != pb.Op {
				continue
			}
			if pa.Op == sqlast.PredUpdated && pa.Column != "" && pb.Column != "" && pa.Column != pb.Column {
				continue
			}
			return true
		}
	}
	return false
}

// interfere reports whether ws writes any table in reads.
func interfere(ws []write, reads map[string]bool) bool {
	for _, w := range ws {
		if reads[w.table] {
			return true
		}
	}
	return false
}

// writesCollide reports whether two write sets touch a common table.
func writesCollide(a, b []write) bool {
	for _, wa := range a {
		for _, wb := range b {
			if wa.table == wb.table {
				return true
			}
		}
	}
	return false
}

// stronglyConnected returns the SCCs of the graph (Tarjan).
func stronglyConnected(nodes []string, adj map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
