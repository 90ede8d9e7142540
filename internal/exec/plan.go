package exec

// Cost-based Volcano-style join planning. The paper's premise is that
// set-oriented rule processing inherits the full query optimizer: "queries
// resulting from rule conditions and actions are processed by the query
// optimizer just like user-submitted queries" (Section 6). This file is
// that optimizer: multi-relation FROM lists whose WHERE carries equi-join
// conjuncts are executed through a tree of iterator operators — scan at
// the leaves, hash joins above — with the join order chosen greedily from
// per-table cardinality and per-column distinct-value statistics
// maintained incrementally by internal/storage. planJoins is the one join
// decision: the executor (forEachCombo) and EXPLAIN (explainJoins) both
// call it, and a nil plan means FROM-order nested loops.
//
// Semantics preservation: a combination may be skipped only when a
// null-rejecting top-level AND equi-conjunct (`a.x = b.y`) rules it out —
// under three-valued logic a False or Unknown conjunct makes the whole AND
// non-True — and the full WHERE is still evaluated on every surviving
// combination. A conjunct is only used when its two declared column kinds
// are comparable (the same kind, or both numeric), so skipping never hides
// the comparison error the nested loop would report. Surviving
// combinations are drained into one flat arena of row positions and put
// back into the nested-loop odometer's emission order (lexicographic on
// the position vector) by a stable counting sort per position, least
// significant first, so result order, select-observation, and
// residual-predicate behavior are indistinguishable from the naive
// driver. Like the index access path (access.go), WHERE is evaluated
// only on surviving combinations, so a residual conjunct that would error
// on a skipped combination does not error here.

import (
	"slices"
	"sync/atomic"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// PlanCounters is planner telemetry, shared by all Envs of one engine.
type PlanCounters struct {
	// Planned counts query blocks executed through the planned join path.
	Planned atomic.Int64
	// ProbeFallbacks counts index probes that were planned but declined at
	// lookup time (storage.probeKey could not answer the probe exactly —
	// the 2^53 integer-keyspace fallback), forcing a heap scan.
	ProbeFallbacks atomic.Int64
}

// maxJoinKeyCols caps the composite join key width; equi-conjuncts beyond
// the cap stay residual (still enforced by the full WHERE).
const maxJoinKeyCols = 4

// equiCond is one top-level AND conjunct `a.x = b.y` whose two column
// references resolve uniquely to two different FROM relations.
type equiCond struct {
	lrel, lcol int
	rrel, rcol int
	// exact selects the exact-integer keyspace: both columns are declared
	// INTEGER, so int-int equality needs no float image (see condExact).
	exact bool
}

// collectEquiConds walks the top-level AND tree of where and returns every
// equi-join conjunct between two distinct relations of rels whose column
// kinds are comparable. A reference that is ambiguous at this scope level,
// or does not resolve here at all (it may be a correlated outer
// reference), never yields a conjunct.
func (e *Env) collectEquiConds(where sqlast.Expr, rels []*relation) []equiCond {
	var out []equiCond
	var walk func(x sqlast.Expr)
	walk = func(x sqlast.Expr) {
		b, ok := x.(*sqlast.Binary)
		if !ok {
			return
		}
		if b.Op == sqlast.OpAnd {
			walk(b.L)
			walk(b.R)
			return
		}
		if b.Op != sqlast.OpEq {
			return
		}
		lref, lok := b.L.(*sqlast.ColumnRef)
		rref, rok := b.R.(*sqlast.ColumnRef)
		if !lok || !rok {
			return
		}
		lc, lr := resolveInRels(lref, rels)
		rc, rr := resolveInRels(rref, rels)
		if lr < 0 || rr < 0 || lr == rr {
			return
		}
		exact, ok := e.condExact(rels, lr, lc, rr, rc)
		if !ok {
			return
		}
		out = append(out, equiCond{lrel: lr, lcol: lc, rrel: rr, rcol: rc, exact: exact})
	}
	walk(where)
	return out
}

// resolveInRels resolves a column reference uniquely against the block's
// relations, mirroring scope.lookup's innermost-level matching. Ambiguous
// or unresolvable references return rel -1.
func resolveInRels(ref *sqlast.ColumnRef, rels []*relation) (col, rel int) {
	rel, col = -1, -1
	for ri, r := range rels {
		if ref.Qualifier != "" && ref.Qualifier != r.binding {
			continue
		}
		for ci, c := range r.cols {
			if c == ref.Column {
				if rel >= 0 {
					return -1, -1 // ambiguous
				}
				rel, col = ri, ci
			}
		}
	}
	return col, rel
}

// condExact classifies a candidate conjunct by its columns' declared
// kinds. ok is false unless both kinds are known and comparable — the same
// kind, or both numeric — since comparing any other pair is an evaluation
// error that the nested loop reports and a hash join would skip silently.
// exact selects the keyspace: when both columns are declared INTEGER every
// stored value is an int64 (coerceRow enforces column kind homogeneity)
// and int-int comparison is exact, so distinct int64s above 2^53 keep
// distinct buckets. Any other combination goes through the float-image
// keyspace, matching value.Compare's cross-kind equality (which converts
// mixed int/float operands to float64).
func (e *Env) condExact(rels []*relation, lr, lc, rr, rc int) (exact, ok bool) {
	k0, ok0 := e.relColumnKind(rels[lr], lc)
	k1, ok1 := e.relColumnKind(rels[rr], rc)
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	if !ok0 || !ok1 || (k0 != k1 && !(numeric(k0) && numeric(k1))) {
		return false, false
	}
	return k0 == value.KindInt && k1 == value.KindInt, true
}

// relColumnKind reports the declared kind of a relation's column, when
// the relation is backed by a catalog schema (base or transition table).
func (e *Env) relColumnKind(rel *relation, col int) (value.Kind, bool) {
	if rel.table == "" {
		return value.KindNull, false
	}
	schema, err := e.lookupSchema(rel.table)
	if err != nil || col < 0 || col >= len(schema.Columns) {
		return value.KindNull, false
	}
	return schema.Columns[col].Type, true
}

// joinStep joins relation right into the set built so far.
type joinStep struct {
	right int
	// conds are normalized so lrel is already joined and rrel == right.
	// Empty conds means a cross-product step (no connecting conjunct).
	conds []equiCond
	// est is the estimated number of output combinations after this step.
	est float64
}

// joinPlan is a left-deep join order: start, then each step's relation.
type joinPlan struct {
	start int
	steps []joinStep
}

// planJoins is the join decision for a multi-relation block, shared by
// the executor (materialized row counts, distinctEstimator) and EXPLAIN
// (estimated row counts, statsDistinctEstimator). It returns nil — run
// FROM-order nested loops — under Naive, for a block with no WHERE, or
// when WHERE has no usable equi-join conjunct.
//
// Otherwise it picks a left-deep order greedily: start from the smallest
// relation, then repeatedly join the connected relation with the lowest
// estimated output |S ⋈ R| = est(S)·|R|·∏ 1/max(d_S, d_R) over the
// connecting equi-conjuncts; with no connected relation left, take the
// smallest remaining as a cross-product step. Ties break to the lowest
// FROM position, so the order is deterministic.
func (e *Env) planJoins(where sqlast.Expr, rels []*relation, rows []float64, dist func(rel, col int) float64) *joinPlan {
	if e.Naive || where == nil {
		return nil
	}
	conds := e.collectEquiConds(where, rels)
	if len(conds) == 0 {
		return nil
	}
	n := len(rows)
	start := 0
	for i := 1; i < n; i++ {
		if rows[i] < rows[start] {
			start = i
		}
	}
	joined := make([]bool, n)
	joined[start] = true
	est := rows[start]
	var steps []joinStep
	for len(steps) < n-1 {
		best, bestEst := -1, 0.0
		var bestConds []equiCond
		for r := 0; r < n; r++ {
			if joined[r] {
				continue
			}
			cs := connectingConds(conds, joined, r)
			if len(cs) == 0 {
				continue
			}
			out := est * rows[r]
			for _, c := range cs {
				if d := maxf(dist(c.lrel, c.lcol), dist(c.rrel, c.rcol)); d > 1 {
					out /= d
				}
			}
			if best < 0 || out < bestEst {
				best, bestEst, bestConds = r, out, cs
			}
		}
		if best < 0 {
			for r := 0; r < n; r++ {
				if joined[r] {
					continue
				}
				if best < 0 || rows[r] < rows[best] {
					best = r
				}
			}
			bestEst = est * rows[best]
		}
		steps = append(steps, joinStep{right: best, conds: bestConds, est: bestEst})
		joined[best] = true
		est = bestEst
	}
	return &joinPlan{start: start, steps: steps}
}

// distinctEstimator returns a distinct-value estimator for the join
// columns: base tables use the storage layer's incrementally-maintained
// column statistics; transition tables (rule-local data with no stored
// stats) are counted exactly over their materialized rows.
func (e *Env) distinctEstimator(rels []*relation) func(rel, col int) float64 {
	type rc struct{ rel, col int }
	cache := make(map[rc]float64)
	lookup := func(rel, col int) float64 {
		r := rels[rel]
		if !r.trans && r.table != "" {
			if cs, err := e.Store.ColumnStats(r.table, col); err == nil {
				return float64(cs.Distinct)
			}
		}
		seen := make(map[value.Key]bool)
		for _, tr := range r.rows {
			if k, ok := value.KeyNumeric(tr.Values[col]); ok {
				seen[k] = true
			}
		}
		return float64(len(seen))
	}
	return func(rel, col int) float64 {
		key := rc{rel, col}
		if d, ok := cache[key]; ok {
			return d
		}
		d := lookup(rel, col)
		cache[key] = d
		return d
	}
}

// connectingConds returns the conjuncts linking relation r to the joined
// set, normalized so the right side is r, capped at maxJoinKeyCols (the
// rest stay residual).
func connectingConds(conds []equiCond, joined []bool, r int) []equiCond {
	var out []equiCond
	for _, c := range conds {
		switch {
		case joined[c.lrel] && c.rrel == r:
			out = append(out, c)
		case joined[c.rrel] && c.lrel == r:
			out = append(out, equiCond{lrel: c.rrel, lcol: c.rcol, rrel: c.lrel, rcol: c.lcol, exact: c.exact})
		}
		if len(out) == maxJoinKeyCols {
			break
		}
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Volcano operators over position vectors
// ---------------------------------------------------------------------------

// A comboOp is a Volcano iterator producing position vectors ("combos"):
// combo[i] is the row index bound for relation i (-1 while unbound). Each
// operator reuses one buffer, so a combo is valid only until the next call
// to next.
type comboOp interface {
	open() error
	next() ([]int32, bool, error)
	close()
}

// joinKey is a composite hash key of up to maxJoinKeyCols columns.
type joinKey struct {
	n int8
	k [maxJoinKeyCols]value.Key
}

func condKey(c equiCond, v value.Value) (value.Key, bool) {
	if c.exact {
		return value.KeyExact(v)
	}
	return value.KeyNumeric(v)
}

// rightKey keys a row of the step's right relation. ok is false when any
// key column is NULL (a NULL join key matches nothing).
func rightKey(st joinStep, row storage.Row) (joinKey, bool) {
	var k joinKey
	k.n = int8(len(st.conds))
	for i, c := range st.conds {
		key, ok := condKey(c, row[c.rcol])
		if !ok {
			return joinKey{}, false
		}
		k.k[i] = key
	}
	return k, true
}

// leftKey keys an input combo on the step's left-side columns.
func leftKey(st joinStep, rels []*relation, combo []int32) (joinKey, bool) {
	var k joinKey
	k.n = int8(len(st.conds))
	for i, c := range st.conds {
		v := rels[c.lrel].rows[combo[c.lrel]].Values[c.lcol]
		key, ok := condKey(c, v)
		if !ok {
			return joinKey{}, false
		}
		k.k[i] = key
	}
	return k, true
}

// scanOp emits one combo per row of the starting relation.
type scanOp struct {
	rel, rows int
	i         int
	buf       []int32
}

func newScanOp(n, rel, rows int) *scanOp {
	buf := make([]int32, n)
	for j := range buf {
		buf[j] = -1
	}
	return &scanOp{rel: rel, rows: rows, buf: buf}
}

func (s *scanOp) open() error { s.i = 0; return nil }
func (s *scanOp) close()      {}

func (s *scanOp) next() ([]int32, bool, error) {
	if s.i >= s.rows {
		return nil, false, nil
	}
	s.buf[s.rel] = int32(s.i)
	s.i++
	return s.buf, true, nil
}

// hashJoinOp joins the input stream with the step's right relation through
// a hash table built on the right side. With no connecting conjuncts it
// degenerates to a cross-product step.
type hashJoinOp struct {
	input comboOp
	rels  []*relation
	step  joinStep

	// probe returns the right rows matching an input combo.
	probe func(combo []int32) []int32

	out     []int32
	matches []int32
	mi      int
}

// buildTable maps each key of the right relation's rows to their
// positions; key reports false for a row that matches nothing.
func buildTable[K comparable](rows []TransRow, key func(storage.Row) (K, bool)) map[K][]int32 {
	table := make(map[K][]int32)
	for i, tr := range rows {
		if k, ok := key(tr.Values); ok {
			table[k] = append(table[k], int32(i))
		}
	}
	return table
}

func (o *hashJoinOp) open() error {
	if err := o.input.open(); err != nil {
		return err
	}
	o.out = make([]int32, len(o.rels))
	right := o.rels[o.step.right]
	switch len(o.step.conds) {
	case 0:
		all := make([]int32, len(right.rows))
		for i := range right.rows {
			all[i] = int32(i)
		}
		o.probe = func([]int32) []int32 { return all }
	case 1:
		// One conjunct keys by the column's own value.Key: no composite
		// key to build or hash per row.
		c := o.step.conds[0]
		table := buildTable(right.rows, func(row storage.Row) (value.Key, bool) { return condKey(c, row[c.rcol]) })
		left := o.rels[c.lrel].rows
		o.probe = func(combo []int32) []int32 {
			k, ok := condKey(c, left[combo[c.lrel]].Values[c.lcol])
			if !ok {
				return nil
			}
			return table[k]
		}
	default:
		table := buildTable(right.rows, func(row storage.Row) (joinKey, bool) { return rightKey(o.step, row) })
		o.probe = func(combo []int32) []int32 {
			k, ok := leftKey(o.step, o.rels, combo)
			if !ok {
				return nil
			}
			return table[k]
		}
	}
	return nil
}

func (o *hashJoinOp) close() { o.input.close() }

func (o *hashJoinOp) next() ([]int32, bool, error) {
	for o.mi >= len(o.matches) {
		c, ok, err := o.input.next()
		if err != nil || !ok {
			return nil, false, err
		}
		copy(o.out, c)
		o.matches, o.mi = o.probe(c), 0
	}
	o.out[o.step.right] = o.matches[o.mi]
	o.mi++
	return o.out, true, nil
}

// restoreOrderOp drains its input and re-emits the combos in the
// nested-loop odometer's emission order: lexicographic on the position
// vector, position 0 outermost.
type restoreOrderOp struct {
	input comboOp
	rels  []*relation

	arena []int32 // the drained combos, len(rels) positions each
	order []int32 // emission order as combo numbers; nil when drained in order
	i     int
}

func (o *restoreOrderOp) open() error {
	if err := o.input.open(); err != nil {
		return err
	}
	for {
		c, ok, err := o.input.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		o.arena = append(o.arena, c...)
	}
	if !inOdometerOrder(o.arena, len(o.rels)) {
		o.order = odometerOrder(o.arena, o.rels)
	}
	return nil
}

// inOdometerOrder reports whether the combos of arena, k positions each,
// are already in lexicographic order.
func inOdometerOrder(arena []int32, k int) bool {
	for i := k; i < len(arena); i += k {
		if slices.Compare(arena[i-k:i], arena[i:i+k]) > 0 {
			return false
		}
	}
	return true
}

// odometerOrder sorts the combos of arena lexicographically and returns
// their numbers in that order. It is a least-significant-digit radix sort:
// one stable counting-sort pass per position, last position first, each
// pass O(m + |rels[i]|) over m combos, so O(k·(m + |Rᵢ|)) in all.
func odometerOrder(arena []int32, rels []*relation) []int32 {
	k := len(rels)
	m := len(arena) / k
	order, tmp := make([]int32, m), make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	var start []int32
	for p := k - 1; p >= 0; p-- {
		start = slices.Grow(start[:0], len(rels[p].rows)+1)[:len(rels[p].rows)+1]
		clear(start)
		for _, c := range order {
			start[arena[int(c)*k+p]+1]++
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, c := range order {
			v := arena[int(c)*k+p]
			tmp[start[v]] = c
			start[v]++
		}
		order, tmp = tmp, order
	}
	return order
}

func (o *restoreOrderOp) close() { o.input.close() }

func (o *restoreOrderOp) next() ([]int32, bool, error) {
	k := len(o.rels)
	if o.i*k >= len(o.arena) {
		return nil, false, nil
	}
	c := o.i
	if o.order != nil {
		c = int(o.order[o.i])
	}
	o.i++
	return o.arena[c*k : c*k+k : c*k+k], true, nil
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// forEachComboPlanned executes the planned operator tree and visits its
// combinations, as forEachCombo does, in odometer order.
func (e *Env) forEachComboPlanned(sel *sqlast.Select, sc *scope, rels []*relation, plan *joinPlan, fn func(pos []int32) error) error {
	if e.Counters != nil {
		e.Counters.Planned.Add(1)
	}
	var op comboOp = newScanOp(len(rels), plan.start, len(rels[plan.start].rows))
	for _, st := range plan.steps {
		op = &hashJoinOp{input: op, rels: rels, step: st}
	}
	root := &restoreOrderOp{input: op, rels: rels}
	if err := root.open(); err != nil {
		return err
	}
	defer root.close()
	for {
		c, ok, err := root.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := e.visit(sel, sc, rels, c, fn); err != nil {
			return err
		}
	}
}
