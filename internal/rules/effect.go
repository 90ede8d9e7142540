// Package rules implements the core contribution of the paper: set-oriented
// production rules over relational transitions. It provides
//
//   - transition effects [I, D, U] and their composition (Definition 2.1),
//     both in pure handle-set form (SetEffect) and in the value-carrying
//     form the execution algorithm needs (Effect, mirroring Figure 1's
//     per-rule trans-info [ins, del, upd]);
//   - rule definitions with transition predicates, conditions, actions, and
//     the triggering test of Section 3;
//   - transition-table materialization (inserted t, deleted t,
//     old/new updated t[.c], and the Section 5.1 selected t);
//   - rule selection strategies over the priority partial order of
//     Section 4.4.
//
// The engine package drives these pieces with the Figure 1 algorithm.
package rules

import (
	"fmt"
	"slices"
	"sort"

	"sopr/internal/exec"
	"sopr/internal/storage"
)

// ---------------------------------------------------------------------------
// Pure Definition 2.1 composition over handle sets
// ---------------------------------------------------------------------------

// HandleSet is a set of tuple handles.
type HandleSet map[storage.Handle]bool

// HandleColSet is a set of (handle, column) pairs, represented as handle →
// set of column indexes.
type HandleColSet map[storage.Handle]map[int]bool

// SetEffect is a transition effect in the pure form of Section 2.2: three
// sets [I, D, U] with no values attached. It exists to state and test the
// algebra of Definition 2.1 directly; the engine uses the value-carrying
// Effect below.
type SetEffect struct {
	I HandleSet
	D HandleSet
	U HandleColSet
}

// NewSetEffect returns an empty effect.
func NewSetEffect() SetEffect {
	return SetEffect{I: HandleSet{}, D: HandleSet{}, U: HandleColSet{}}
}

// Clone deep-copies the effect.
func (e SetEffect) Clone() SetEffect {
	c := NewSetEffect()
	for h := range e.I {
		c.I[h] = true
	}
	for h := range e.D {
		c.D[h] = true
	}
	for h, cols := range e.U {
		m := make(map[int]bool, len(cols))
		for i := range cols {
			m[i] = true
		}
		c.U[h] = m
	}
	return c
}

// Equal reports set equality of two effects.
func (e SetEffect) Equal(f SetEffect) bool {
	if len(e.I) != len(f.I) || len(e.D) != len(f.D) || len(e.U) != len(f.U) {
		return false
	}
	for h := range e.I {
		if !f.I[h] {
			return false
		}
	}
	for h := range e.D {
		if !f.D[h] {
			return false
		}
	}
	for h, cols := range e.U {
		fc, ok := f.U[h]
		if !ok || len(fc) != len(cols) {
			return false
		}
		for i := range cols {
			if !fc[i] {
				return false
			}
		}
	}
	return true
}

// Compose implements Definition 2.1: the net effect of performing e then f
// as one indivisible transition.
//
//	I = (I1 ∪ I2) − D2
//	D = (D1 ∪ D2) − I1
//	U = (U1 ∪ U2) − (D2 ∪ I1)   (per handle, all columns removed)
func (e SetEffect) Compose(f SetEffect) SetEffect {
	out := NewSetEffect()
	for h := range e.I {
		if !f.D[h] {
			out.I[h] = true
		}
	}
	for h := range f.I {
		if !f.D[h] {
			out.I[h] = true
		}
	}
	for h := range e.D {
		out.D[h] = true // D1 handles cannot be in I1 (disjointness)
	}
	for h := range f.D {
		if !e.I[h] {
			out.D[h] = true
		}
	}
	addU := func(h storage.Handle, cols map[int]bool) {
		if f.D[h] || e.I[h] {
			return
		}
		m, ok := out.U[h]
		if !ok {
			m = make(map[int]bool, len(cols))
			out.U[h] = m
		}
		for i := range cols {
			m[i] = true
		}
	}
	for h, cols := range e.U {
		addU(h, cols)
	}
	for h, cols := range f.U {
		addU(h, cols)
	}
	return out
}

// CheckDisjoint verifies the invariant of Section 2.2: a handle appears in
// at most one of I, D, U of a composed effect.
func (e SetEffect) CheckDisjoint() error {
	for h := range e.I {
		if e.D[h] {
			return fmt.Errorf("rules: handle %d in both I and D", h)
		}
		if _, ok := e.U[h]; ok {
			return fmt.Errorf("rules: handle %d in both I and U", h)
		}
	}
	for h := range e.D {
		if _, ok := e.U[h]; ok {
			return fmt.Errorf("rules: handle %d in both D and U", h)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Value-carrying effects (Figure 1 trans-info)
// ---------------------------------------------------------------------------

// DelEntry records a deleted tuple: its containing table and its value at
// the start of the composite transition (Figure 1: "del contains values for
// deleted tuples", captured via get-old-value so that update-then-delete
// records the pre-update value).
type DelEntry struct {
	Table  string
	OldRow storage.Row
}

// UpdEntry records an updated tuple: its table, its value at the start of
// the composite transition, and the set of updated column indexes.
// (Figure 1: "upd contains handles and columns for updated tuples along
// with relevant old values; new values may be obtained from the database".)
type UpdEntry struct {
	Table  string
	OldRow storage.Row
	Cols   map[int]bool
}

// Effect is a composite transition effect with captured old values — the
// paper's [I, D, U] triple in exactly the representation of Figure 1's
// trans-info [ins, del, upd], plus the optional S component of Section 5.1.
// Inserted-tuple values are read from the live database when needed.
type Effect struct {
	Ins map[storage.Handle]string
	Del map[storage.Handle]DelEntry
	Upd map[storage.Handle]UpdEntry
	Sel map[storage.Handle]string // Section 5.1 extension; nil unless enabled
}

// NewEffect returns an empty effect.
func NewEffect() *Effect {
	return &Effect{
		Ins: make(map[storage.Handle]string),
		Del: make(map[storage.Handle]DelEntry),
		Upd: make(map[storage.Handle]UpdEntry),
	}
}

// IsEmpty reports whether the effect contains no changes (selections do not
// count as changes unless select triggering is enabled, in which case they
// do trigger rules but still represent no change to the database).
func (e *Effect) IsEmpty() bool {
	return len(e.Ins) == 0 && len(e.Del) == 0 && len(e.Upd) == 0 && len(e.Sel) == 0
}

// Tables appends the distinct tables the effect touches to dst.
func (e *Effect) Tables(dst []string) []string {
	add := func(t string) {
		if !slices.Contains(dst, t) {
			dst = append(dst, t)
		}
	}
	for _, t := range e.Ins {
		add(t)
	}
	for _, d := range e.Del {
		add(d.Table)
	}
	for _, u := range e.Upd {
		add(u.Table)
	}
	for _, t := range e.Sel {
		add(t)
	}
	return dst
}

// keepAll retains every table (unfiltered clone/apply).
func keepAll(string) bool { return true }

// Clone deep-copies the effect. Old rows are shared (they are immutable
// snapshots).
func (e *Effect) Clone() *Effect {
	c := e.CloneFiltered(keepAll)
	if e.Sel != nil && c.Sel == nil {
		c.Sel = make(map[storage.Handle]string)
	}
	return c
}

// SetEffect projects the value-carrying effect onto its pure [I, D, U]
// sets.
func (e *Effect) SetEffect() SetEffect {
	s := NewSetEffect()
	for h := range e.Ins {
		s.I[h] = true
	}
	for h := range e.Del {
		s.D[h] = true
	}
	for h, u := range e.Upd {
		cols := make(map[int]bool, len(u.Cols))
		for i := range u.Cols {
			cols[i] = true
		}
		s.U[h] = cols
	}
	return s
}

// AddOp folds the affected set of one executed operation into the running
// effect. This is the within-transition analogue of modify-trans-info in
// Figure 1 (composition with a single-operation effect), capturing old
// values at the right moment:
//
//   - an insert adds the handle to I;
//   - a delete of a tuple inserted earlier in the transition removes it
//     from I entirely (net effect: nothing); otherwise it records the
//     pre-transition value — the old row already stored in U if the tuple
//     was updated earlier (get-old-value), else the value at deletion;
//   - an update of a tuple inserted earlier is folded into the insertion
//     (net effect: insert of the updated tuple); otherwise it records the
//     pre-transition value for any columns not already recorded.
func (e *Effect) AddOp(res *exec.OpResult) {
	for _, h := range res.Inserted {
		e.Ins[h] = res.Table
	}
	for _, d := range res.Deleted {
		if _, ok := e.Ins[d.Handle]; ok {
			delete(e.Ins, d.Handle)
			delete(e.Sel, d.Handle)
			continue
		}
		old := d.OldRow
		if u, ok := e.Upd[d.Handle]; ok {
			old = u.OldRow
			delete(e.Upd, d.Handle)
		}
		e.Del[d.Handle] = DelEntry{Table: res.Table, OldRow: old}
		delete(e.Sel, d.Handle)
	}
	for _, u := range res.Updated {
		if _, ok := e.Ins[u.Handle]; ok {
			continue // insert-then-update is just an insert
		}
		entry, ok := e.Upd[u.Handle]
		if !ok {
			entry = UpdEntry{Table: res.Table, OldRow: u.OldRow, Cols: make(map[int]bool, len(u.Cols))}
		}
		for _, c := range u.Cols {
			entry.Cols[c] = true
		}
		e.Upd[u.Handle] = entry
	}
}

// AddSelected records tuples read by a select operation (Section 5.1).
// Selections of tuples inserted earlier in the same transition are ignored
// (the paper leaves this open; we take the view that reading data the
// transition itself created is not a selection of pre-existing data).
func (e *Effect) AddSelected(table string, handles []storage.Handle) {
	if e.Sel == nil {
		e.Sel = make(map[storage.Handle]string)
	}
	for _, h := range handles {
		if _, ok := e.Ins[h]; ok {
			continue
		}
		if _, ok := e.Del[h]; ok {
			continue
		}
		e.Sel[h] = table
	}
}

// CloneFiltered is Clone restricted to entries whose table satisfies keep.
// The paper's Figure 1 discussion notes that "in actuality we need only
// save the subset of that information relevant to the particular rule";
// the engine keeps, per rule, only the tables named in its transition
// predicates (the Section 3 validation guarantees the rule's condition and
// action can reference nothing else).
func (e *Effect) CloneFiltered(keep func(table string) bool) *Effect {
	c := &Effect{
		Ins: make(map[storage.Handle]string),
		Del: make(map[storage.Handle]DelEntry),
		Upd: make(map[storage.Handle]UpdEntry),
	}
	for h, t := range e.Ins {
		if keep(t) {
			c.Ins[h] = t
		}
	}
	for h, d := range e.Del {
		if keep(d.Table) {
			c.Del[h] = d
		}
	}
	for h, u := range e.Upd {
		if !keep(u.Table) {
			continue
		}
		cols := make(map[int]bool, len(u.Cols))
		for i := range u.Cols {
			cols[i] = true
		}
		c.Upd[h] = UpdEntry{Table: u.Table, OldRow: u.OldRow, Cols: cols}
	}
	for h, t := range e.Sel {
		if keep(t) {
			if c.Sel == nil {
				c.Sel = make(map[storage.Handle]string)
			}
			c.Sel[h] = t
		}
	}
	return c
}

// ApplyFiltered is Apply restricted to entries whose table satisfies keep.
// Deletions are always processed (they may cancel retained insertions of a
// kept table — but an insertion is only retained if its table is kept, and
// a deletion of that tuple carries the same table, so filtering deletions
// by table is sound; we still process all deletions defensively since a
// handle is bound to one table for life).
func (e *Effect) ApplyFiltered(next *Effect, keep func(table string) bool) {
	for h, t := range next.Ins {
		if keep(t) {
			e.Ins[h] = t
		}
	}
	for h, d := range next.Del {
		if !keep(d.Table) {
			continue
		}
		if _, ok := e.Ins[h]; ok {
			delete(e.Ins, h)
			delete(e.Sel, h)
			continue
		}
		old := d.OldRow
		if u, ok := e.Upd[h]; ok {
			old = u.OldRow
			delete(e.Upd, h)
		}
		e.Del[h] = DelEntry{Table: d.Table, OldRow: old}
		delete(e.Sel, h)
	}
	for h, nu := range next.Upd {
		if !keep(nu.Table) {
			continue
		}
		if _, ok := e.Ins[h]; ok {
			continue
		}
		entry, ok := e.Upd[h]
		if !ok {
			entry = UpdEntry{Table: nu.Table, OldRow: nu.OldRow, Cols: make(map[int]bool, len(nu.Cols))}
		}
		for c := range nu.Cols {
			entry.Cols[c] = true
		}
		e.Upd[h] = entry
	}
	for h, t := range next.Sel {
		if !keep(t) {
			continue
		}
		if e.Sel == nil {
			e.Sel = make(map[storage.Handle]string)
		}
		if _, ok := e.Ins[h]; ok {
			continue
		}
		if _, ok := e.Del[h]; ok {
			continue
		}
		e.Sel[h] = t
	}
}

// Apply composes a subsequent transition's effect into this one — Figure
// 1's modify-trans-info([ins,del,upd], E, old-state), where next carries
// its own captured old values in place of the algorithm's old-state
// argument. It implements Definition 2.1 with value maintenance.
func (e *Effect) Apply(next *Effect) { e.ApplyFiltered(next, keepAll) }

// sortedHandles returns the map keys in ascending handle order, for
// deterministic iteration.
func sortedHandles[V any](m map[storage.Handle]V) []storage.Handle {
	hs := make([]storage.Handle, 0, len(m))
	for h := range m {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// String summarizes the effect (for traces and debugging).
func (e *Effect) String() string {
	return fmt.Sprintf("[I:%d D:%d U:%d S:%d]", len(e.Ins), len(e.Del), len(e.Upd), len(e.Sel))
}
