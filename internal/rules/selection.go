package rules

import (
	"fmt"
	"sort"
)

// Strategy selects among the rule-selection policies of Section 4.4. All
// strategies first restrict to rules that are maximal in the priority
// partial order ("a rule is chosen such that no other triggered rule is
// strictly higher in the ordering"); they differ in the tie-break.
type Strategy int

const (
	// StrategyLeastRecent prefers the rule considered least recently
	// (first-definition order initially). This is the default: it is
	// deterministic and gives starvation-free round-robin behavior among
	// equal-priority rules.
	StrategyLeastRecent Strategy = iota
	// StrategyMostRecent prefers the rule considered most recently
	// (depth-first cascades).
	StrategyMostRecent
	// StrategyNameOrder breaks ties by rule name (fully static order).
	StrategyNameOrder
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyLeastRecent:
		return "least-recently-considered"
	case StrategyMostRecent:
		return "most-recently-considered"
	case StrategyNameOrder:
		return "name-order"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Selector chooses among triggered rules (Section 4.4): the priority
// partial order comes from the rule Set, recency from the candidates.
type Selector struct {
	Strategy Strategy
	// Choose, when non-nil, replaces the Strategy tie-break: it receives
	// the names of the maximal (by priority) triggered rules in ascending
	// name order and returns the chosen name. The paper leaves the choice
	// among maximal rules open (Section 4.4); this hook lets a test
	// harness pin any legal order — in particular the differential oracle
	// drives the engine and a reference interpreter through the same
	// selection sequence. Choose must return one of its arguments; any
	// other return falls back to the first candidate. It must be a pure
	// function of the candidate list so that independent executions with
	// equal histories make equal choices.
	Choose func(candidates []string) string
}

// Candidate is a triggered rule offered to Select: its ordinal in the
// rule Set and the engine's stamp of when it was last chosen for
// consideration (a monotone sequence number, used by recency tie-breaks).
type Candidate struct {
	Ordinal        int
	LastConsidered int64
}

// Select returns the ordinal of one triggered rule such that no other
// triggered rule is strictly higher in set's priority order, breaking ties
// by the configured strategy. It returns -1 for an empty set.
func (s Selector) Select(set *Set, triggered []Candidate) int {
	name := func(c Candidate) string { return set.rules[c.Ordinal].Name }
	// Maximal elements of the partial order.
	var maximal []Candidate
	for _, c := range triggered {
		dominated := false
		for _, q := range triggered {
			if q.Ordinal != c.Ordinal && set.Higher(name(q), name(c)) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, c)
		}
	}
	if len(maximal) == 0 {
		return -1
	}
	if s.Choose != nil {
		names := make([]string, len(maximal))
		for i, c := range maximal {
			names[i] = name(c)
		}
		sort.Strings(names)
		picked := s.Choose(names)
		for _, c := range maximal {
			if name(c) == picked {
				return c.Ordinal
			}
		}
		i, _ := set.Ordinal(names[0])
		return i
	}
	first := func(a, b Candidate) bool {
		switch s.Strategy {
		case StrategyMostRecent:
			if a.LastConsidered != b.LastConsidered {
				return a.LastConsidered > b.LastConsidered
			}
		case StrategyNameOrder:
			// fall through to the name tie-break below
		default: // StrategyLeastRecent
			if a.LastConsidered != b.LastConsidered {
				return a.LastConsidered < b.LastConsidered
			}
		}
		return name(a) < name(b)
	}
	best := maximal[0]
	for _, c := range maximal[1:] {
		if first(c, best) {
			best = c
		}
	}
	return best.Ordinal
}
