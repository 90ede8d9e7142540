package rules

import (
	"fmt"

	"sopr/internal/catalog"
	"sopr/internal/sqlast"
)

// TriggerScope selects which composite transition a rule is evaluated
// against (Section 4.2 and footnote 8 of the paper).
type TriggerScope int

const (
	// ScopeSinceAction — the paper's semantics: the composite effect since
	// the state in which the rule's action was last executed (or the state
	// preceding the initial externally-generated transition).
	ScopeSinceAction TriggerScope = iota
	// ScopeSinceConsidered — footnote 8 alternative: since the rule was
	// last chosen for consideration, whether or not its action ran.
	ScopeSinceConsidered
	// ScopeSinceTriggered — the [WF89b] alternative: since the state
	// preceding the most recent triggering of the rule.
	ScopeSinceTriggered
)

// String names the scope.
func (s TriggerScope) String() string {
	switch s {
	case ScopeSinceAction:
		return "since-action"
	case ScopeSinceConsidered:
		return "since-considered"
	case ScopeSinceTriggered:
		return "since-triggered"
	default:
		return fmt.Sprintf("TriggerScope(%d)", int(s))
	}
}

// Rule is one defined production rule (Section 3):
//
//	create rule Name when Preds [if Condition] then Action
//
// A Rule is immutable once defined: ACTIVATE and ALTER RULE replace it in a
// new Set, and Figure 1's per-transaction state (transition information,
// recency) is kept by the engine, not here.
type Rule struct {
	Name      string
	Preds     []sqlast.TransPred
	Condition sqlast.Expr // nil means IF TRUE
	Action    sqlast.RuleAction
	Active    bool
	Scope     TriggerScope
}

// Keep reports whether transition information about the given table is
// relevant to the rule: whether one of its predicates names the table.
// Figure 1's discussion: "we need only save the subset of that
// information relevant to the particular rule" — sound because Section 3
// restricts transition-table references to the rule's own predicates.
func (r *Rule) Keep(table string) bool {
	for _, p := range r.Preds {
		if p.Table == table {
			return true
		}
	}
	return false
}

// Names reports whether the rule names table in a predicate, its condition
// or an action operation (target or FROM list). Procedure bodies are opaque.
func (r *Rule) Names(table string) bool {
	found := false
	ref := func(tr *sqlast.TableRef) { found = found || tr.Table == table }
	for _, p := range r.Preds {
		found = found || p.Table == table
	}
	sqlast.ExprTableRefs(r.Condition, ref)
	for _, op := range r.Action.Block {
		sqlast.StmtTableRefs(op, ref)
		found = found || sqlast.StmtTarget(op) == table
	}
	return found
}

// EffectSatisfies reports whether the effect satisfies any of the basic
// transition predicates — the triggering test of Section 3 when the effect
// is a rule's composite transition information. The catalog maps predicate
// column names to indexes.
func EffectSatisfies(e *Effect, preds []sqlast.TransPred, cat *catalog.Catalog) (bool, error) {
	for _, p := range preds {
		ok, err := effectSatisfiesOne(e, p, cat)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func effectSatisfiesOne(e *Effect, p sqlast.TransPred, cat *catalog.Catalog) (bool, error) {
	switch p.Op {
	case sqlast.PredInserted:
		for _, t := range e.Ins {
			if t == p.Table {
				return true, nil
			}
		}
		return false, nil
	case sqlast.PredDeleted:
		for _, d := range e.Del {
			if d.Table == p.Table {
				return true, nil
			}
		}
		return false, nil
	case sqlast.PredUpdated:
		colIdx := -1
		if p.Column != "" {
			schema, err := cat.Lookup(p.Table)
			if err != nil {
				return false, err
			}
			colIdx = schema.ColumnIndex(p.Column)
			if colIdx < 0 {
				return false, fmt.Errorf("rules: table %q has no column %q", p.Table, p.Column)
			}
		}
		for _, u := range e.Upd {
			if u.Table != p.Table {
				continue
			}
			if colIdx < 0 || u.Cols[colIdx] {
				return true, nil
			}
		}
		return false, nil
	case sqlast.PredSelected:
		// Column-level select predicates degrade to table level: the S
		// component records whole tuples (Section 5.1 leaves the
		// column granularity open).
		for _, t := range e.Sel {
			if t == p.Table {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("rules: unknown transition predicate op %d", int(p.Op))
	}
}

// ValidateRule checks that each predicate names a known table (and, for
// `updated t.c`, a known column), and the static restriction of Section 3:
// the rule's condition and action may reference only transition tables
// corresponding to its own basic transition predicates. ("This
// restriction is syntactic, however, therefore easily checked.") Other
// table and column names in the condition and action are not checked
// here.
func ValidateRule(r *sqlast.CreateRule, cat *catalog.Catalog) error {
	for _, p := range r.Preds {
		schema, err := cat.Lookup(p.Table)
		if err != nil {
			return fmt.Errorf("rules: rule %q: %v", r.Name, err)
		}
		if p.Column != "" && !schema.HasColumn(p.Column) {
			return fmt.Errorf("rules: rule %q: table %q has no column %q", r.Name, p.Table, p.Column)
		}
	}
	var err error // the first unlicensed reference, in source order
	check := func(tr *sqlast.TableRef) {
		if err != nil || tr.Trans == sqlast.TransNone {
			return
		}
		for _, p := range r.Preds {
			if transMatchesPred(tr, p) {
				return
			}
		}
		err = fmt.Errorf("rules: rule %q references transition table %q with no corresponding transition predicate",
			r.Name, tr.String())
	}
	sqlast.ExprTableRefs(r.Condition, check)
	for _, op := range r.Action.Block {
		sqlast.StmtTableRefs(op, check)
	}
	return err
}

// transMatchesPred reports whether a transition-table reference is licensed
// by a basic transition predicate. Per Section 3, `updated t.c` licenses
// old/new updated t.c; `updated t` licenses old/new updated t (the
// whole-table form). We additionally allow the whole-table transition table
// under a column predicate and vice versa only when exact: the paper pairs
// each predicate with its own transition tables, so we require table match
// and, for updated forms, column match.
func transMatchesPred(tr *sqlast.TableRef, p sqlast.TransPred) bool {
	if tr.Table != p.Table {
		return false
	}
	switch tr.Trans {
	case sqlast.TransInserted:
		return p.Op == sqlast.PredInserted
	case sqlast.TransDeleted:
		return p.Op == sqlast.PredDeleted
	case sqlast.TransOldUpdated, sqlast.TransNewUpdated:
		return p.Op == sqlast.PredUpdated && tr.Column == p.Column
	case sqlast.TransSelected:
		return p.Op == sqlast.PredSelected && (tr.Column == p.Column || tr.Column == "")
	default:
		return false
	}
}
