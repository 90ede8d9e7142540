package exec

import (
	"sopr/internal/sqlast"
)

// EvalPredicate evaluates a standalone boolean expression — a rule's
// condition (Section 3 of the paper) — with no row bindings. Embedded
// selects provide access to the current database state and, through the
// environment's TransTableSource, to the rule's transition tables. A nil
// expression is IF TRUE. Unknown (NULL) is not true.
func (e *Env) EvalPredicate(expr sqlast.Expr) (bool, error) {
	clear(e.memo)
	if expr == nil {
		return true, nil
	}
	v, err := e.evalExpr(&scope{}, expr)
	if err != nil {
		return false, err
	}
	t, err := truth(v)
	if err != nil {
		return false, err
	}
	return t.IsTrue(), nil
}
