package rules

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Set is one immutable rule set: the rules in definition order, a name →
// ordinal index, and the user-declared priority partial order
// (`create rule priority r1 before r2`, Section 4.4). Every rule-set change
// returns a new Set and leaves the receiver untouched, so one Set value may
// be read concurrently by the Figure 1 loop, Dump, checkpoints and Analyze.
// The zero Set is empty.
type Set struct {
	rules []*Rule
	index map[string]int
	edges [][2]string // declared pairs [before, after], sorted, distinct

	// watch is Watchers' index, built on its first use so that rule DDL
	// does not pay for it.
	watchOnce sync.Once
	watch     map[string][]int
}

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Rule returns the rule with the given ordinal (definition position).
func (s *Set) Rule(i int) *Rule { return s.rules[i] }

// Ordinal returns the definition position of the named rule.
func (s *Set) Ordinal(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the rule names in definition order.
func (s *Set) Names() []string {
	out := make([]string, len(s.rules))
	for i, r := range s.rules {
		out[i] = r.Name
	}
	return out
}

// Edges returns the declared priority pairs [before, after], sorted. The
// slice is shared: callers must not modify it.
func (s *Set) Edges() [][2]string { return s.edges }

// Watchers returns the ordinals of the active rules whose transition
// information a change to table can alter: those with a predicate on table
// (Section 3 confines a rule to its predicates' tables), each listed once.
// Inactive rules need none: ACTIVATE happens only between transactions.
// The slice is shared: callers must not modify it.
func (s *Set) Watchers(table string) []int {
	s.watchOnce.Do(func() {
		s.watch = make(map[string][]int)
		for i, r := range s.rules {
			if !r.Active {
				continue
			}
			for _, p := range r.Preds {
				if w := s.watch[p.Table]; len(w) == 0 || w[len(w)-1] != i {
					s.watch[p.Table] = append(w, i)
				}
			}
		}
	})
	return s.watch[table]
}

func (s *Set) ordinal(name string) (int, error) {
	if i, ok := s.index[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("rules: rule %q does not exist", name)
}

// newSet returns a set of the given rules (which the caller owns) and edges.
func newSet(rs []*Rule, edges [][2]string) *Set {
	index := make(map[string]int, len(rs))
	for i, r := range rs {
		index[r.Name] = i
	}
	return &Set{rules: rs, index: index, edges: edges}
}

// Define returns the set with r appended in definition order.
func (s *Set) Define(r *Rule) (*Set, error) {
	if _, dup := s.index[r.Name]; dup {
		return nil, fmt.Errorf("rules: rule %q already exists", r.Name)
	}
	return newSet(append(slices.Clip(s.rules), r), s.edges), nil
}

// Drop returns the set without the named rule and its priority edges.
func (s *Set) Drop(name string) (*Set, error) {
	i, err := s.ordinal(name)
	if err != nil {
		return nil, err
	}
	edges := slices.DeleteFunc(slices.Clone(s.edges), func(e [2]string) bool { return e[0] == name || e[1] == name })
	return newSet(slices.Delete(slices.Clone(s.rules), i, i+1), edges), nil
}

// Update returns the set with the named rule replaced by a copy that
// change has modified (ACTIVATE/DEACTIVATE, ALTER RULE ... SCOPE).
func (s *Set) Update(name string, change func(*Rule)) (*Set, error) {
	i, err := s.ordinal(name)
	if err != nil {
		return nil, err
	}
	r := *s.rules[i]
	change(&r)
	rs := slices.Clone(s.rules)
	rs[i] = &r
	return &Set{rules: rs, index: s.index, edges: s.edges}, nil
}

// AddPriority returns the set with the declared edge "before has higher
// priority than after". It fails if the edge would create a cycle ("any
// acyclic group of such pairings induces a partial order").
func (s *Set) AddPriority(before, after string) (*Set, error) {
	for _, name := range []string{before, after} {
		if _, err := s.ordinal(name); err != nil {
			return nil, err
		}
	}
	if before == after {
		return nil, fmt.Errorf("rules: priority of %q over itself", before)
	}
	if s.Higher(after, before) {
		return nil, fmt.Errorf("rules: priority %q before %q would create a cycle", before, after)
	}
	edge := [2]string{before, after}
	if slices.Contains(s.edges, edge) {
		return s, nil
	}
	edges := append(slices.Clone(s.edges), edge)
	slices.SortFunc(edges, func(x, y [2]string) int {
		if c := strings.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return strings.Compare(x[1], y[1])
	})
	return &Set{rules: s.rules, index: s.index, edges: edges}, nil
}

// Higher reports whether rule a is strictly higher than rule b in the
// transitive closure of the declared pairings (a DFS over the edges).
func (s *Set) Higher(a, b string) bool {
	if a == b || len(s.edges) == 0 {
		return false
	}
	seen := map[string]bool{a: true}
	stack := []string{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.edges {
			if e[0] != n || seen[e[1]] {
				continue
			}
			if e[1] == b {
				return true
			}
			seen[e[1]] = true
			stack = append(stack, e[1])
		}
	}
	return false
}
