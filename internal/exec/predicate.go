package exec

import (
	"sopr/internal/sqlast"
	"sopr/internal/value"
)

// EvalPredicate binds and evaluates a standalone boolean expression — a
// rule's condition (Section 3 of the paper) — with no row bindings.
// Embedded selects provide access to the current database state and,
// through the environment's TransTableSource, to the rule's transition
// tables. A nil expression is IF TRUE. Unknown (NULL) is not true.
func (e *Env) EvalPredicate(expr sqlast.Expr) (bool, error) {
	return e.EvalCondition(BindCondition(e.Store.Catalog(), expr))
}

// EvalCondition evaluates a bound rule condition (see EvalPredicate).
func (e *Env) EvalCondition(b *Bound) (bool, error) {
	clear(e.memo)
	b = b.current(e.Store.Catalog())
	if b.test == nil {
		return true, nil
	}
	t, err := b.test(e.rootFrame())
	if err != nil {
		return false, err
	}
	return t == value.True, nil
}
