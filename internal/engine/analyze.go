package engine

import (
	"sopr/internal/analysis"
)

// Analyze runs the static rule analysis of Section 6 over the published
// rule set, taking declared priorities into account for ordering-conflict
// warnings.
func (e *Engine) Analyze() *analysis.Report {
	set := e.snap.Load().rules
	defs := make([]analysis.RuleDef, set.Len())
	for i := range defs {
		r := set.Rule(i)
		defs[i] = analysis.RuleDef{
			Name:      r.Name,
			Preds:     r.Preds,
			Condition: r.Condition,
			Action:    r.Action,
		}
	}
	return analysis.Analyze(defs, set.Higher)
}
