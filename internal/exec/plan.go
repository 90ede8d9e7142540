package exec

// Cost-based join planning. The paper's premise is that set-oriented
// rule processing inherits the full query optimizer: "queries resulting
// from rule conditions and actions are processed by the query optimizer
// just like user-submitted queries" (Section 6). This file is that
// optimizer: multi-relation FROM lists whose WHERE carries equi-join
// conjuncts are executed as a left-deep sequence of hash joins, with the
// join order chosen greedily from per-table cardinality and per-column
// distinct-value statistics maintained incrementally by internal/storage.
// planJoins is the one join decision: the executor (forEachCombo) and
// EXPLAIN (explainJoins) both call it, and a nil plan means FROM-order
// nested loops.
//
// Semantics preservation: a combination may be skipped only when a
// null-rejecting top-level AND equi-conjunct (`a.x = b.y`) rules it out —
// under three-valued logic a False or Unknown conjunct makes the whole AND
// non-True. A conjunct is only used when its two declared column kinds
// are comparable (the same kind, or both numeric), so skipping never hides
// the comparison error the nested loop would report. The conjuncts a hash
// step enforces are not evaluated again: a surviving combination's keys
// are equal, which in the conjunct's keyspace (condKey) implies that the
// two values compare equal, and NULL keys never match, so each enforced
// conjunct is True on every surviving combination and cannot error. The
// residual — WHERE with those conjuncts taken out — is evaluated on every
// surviving combination. Each step maps the combinations joined so far
// into one exactly sized arena of row positions (count the matches of
// every combination, then fill), and the last arena is put back into the
// nested-loop odometer's emission order (lexicographic on the position
// vector) by a stable counting sort per position, least significant
// first, so result order, select-observation, and residual-predicate
// behavior are indistinguishable from the naive driver. Like the index
// access path (access.go), WHERE is evaluated only on surviving
// combinations, so a residual conjunct that would error on a skipped
// combination does not error here.

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
// references bind to two different FROM relations of its block.
type equiCond struct {
	conj       int // the conjunct's position in the block's WHERE
	lrel, lcol int
	rrel, rcol int
	// exact selects the exact-integer keyspace: both columns are declared
	// INTEGER, so int-int equality needs no float image (see condExact).
	exact bool
}

// equiOf reports whether conjunct i of blk, an equality, is an equi-join
// conjunct: both sides are columns of two different relations of the
// block whose kinds are comparable. A reference that is ambiguous, or
// binds to an enclosing block, never yields one.
func equiOf(blk *block, i int, c *conjunct) (equiCond, bool) {
	l, r := c.l, c.r
	if l.leaf != leafCol || r.leaf != leafCol || l.ref.depth != 0 || r.ref.depth != 0 || l.ref.slot == r.ref.slot {
		return equiCond{}, false
	}
	exact, ok := condExact(blk, l.ref, r.ref)
	return equiCond{conj: i, lrel: l.ref.slot, lcol: l.ref.ord, rrel: r.ref.slot, rcol: r.ref.ord, exact: exact}, ok
}

// condExact classifies a candidate conjunct by its columns' declared
// kinds. ok is false unless both kinds are comparable — the same kind, or
// both numeric — since comparing any other pair is an evaluation
// error that the nested loop reports and a hash join would skip silently.
// exact selects the keyspace: when both columns are declared INTEGER every
// stored value is an int64 (coerceRow enforces column kind homogeneity)
// and int-int comparison is exact, so distinct int64s above 2^53 keep
// distinct buckets. Any other combination goes through the float-image
// keyspace, matching value.Compare's cross-kind equality (which converts
// mixed int/float operands to float64).
func condExact(blk *block, l, r colRef) (exact, ok bool) {
	k0 := blk.from[l.slot].schema.Columns[l.ord].Type
	k1 := blk.from[r.slot].schema.Columns[r.ord].Type
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	if k0 != k1 && !(numeric(k0) && numeric(k1)) {
		return false, false
	}
	return k0 == value.KindInt && k1 == value.KindInt, true
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

// planJoins is the join decision for a multi-relation block with
// equi-join conjuncts conds, shared by the executor (materialized row
// counts, distinctEstimator) and EXPLAIN (estimated row counts,
// statsDistinctEstimator). It returns nil — run FROM-order nested loops —
// under Naive, or when WHERE has no usable equi-join conjunct.
//
// Otherwise it picks a left-deep order greedily: start from the smallest
// relation, then repeatedly join the connected relation with the lowest
// estimated output |S ⋈ R| = est(S)·|R|·∏ 1/max(d_S, d_R) over the
// connecting equi-conjuncts; with no connected relation left, take the
// smallest remaining as a cross-product step. Ties break to the lowest
// FROM position, so the order is deterministic.
func (e *Env) planJoins(conds []equiCond, rows []float64, dist func(rel, col int) float64) *joinPlan {
	if e.Naive || len(conds) == 0 {
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
func (e *Env) distinctEstimator(blk *block, rels []relation) func(rel, col int) float64 {
	type rc struct{ rel, col int }
	cache := make(map[rc]float64)
	lookup := func(rel, col int) float64 {
		if f := &blk.from[rel]; f.tr.Trans == sqlast.TransNone {
			if cs, err := e.Store.ColumnStats(f.schema.Name, col); err == nil {
				return float64(cs.Distinct)
			}
		}
		r := &rels[rel]
		seen := make(map[value.Key]bool)
		for p := int32(0); int(p) < r.n; p++ {
			if k, ok := value.KeyNumeric(r.row(p)[col]); ok {
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
			out = append(out, equiCond{conj: c.conj, lrel: c.rrel, lcol: c.rcol, rrel: c.lrel, rcol: c.lcol, exact: c.exact})
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
// Hash joins over position arenas
// ---------------------------------------------------------------------------

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

// compositeKey keys the columns of a step's conjuncts, reading each
// column's value through at. ok is false when any key column is NULL (a
// NULL join key matches nothing).
func compositeKey(conds []equiCond, at func(c equiCond) value.Value) (joinKey, bool) {
	var k joinKey
	k.n = int8(len(conds))
	for i, c := range conds {
		key, ok := condKey(c, at(c))
		if !ok {
			return joinKey{}, false
		}
		k.k[i] = key
	}
	return k, true
}

// buckets is a hash join's build side: the positions of the right
// relation's rows grouped by key, each key's contiguous in rows and in
// relation order. id maps a key to its bucket.
type buckets[K comparable] struct {
	id    map[K]int32
	start []int32 // bucket b is rows[start[b]:start[b+1]]
	rows  []int32
}

// buildBuckets groups the rows of r by key; key reports false for a row
// that matches nothing.
func buildBuckets[K comparable](r *relation, key func(storage.Row) (K, bool)) *buckets[K] {
	t := &buckets[K]{id: make(map[K]int32)}
	of := make([]int32, r.n) // each row's bucket, -1 for none
	var count []int32
	for p := range of {
		k, ok := key(r.row(int32(p)))
		if !ok {
			of[p] = -1
			continue
		}
		b, seen := t.id[k]
		if !seen {
			b = int32(len(count))
			t.id[k] = b
			count = append(count, 0)
		}
		of[p] = b
		count[b]++
	}
	t.start = make([]int32, len(count)+1)
	for b, n := range count {
		t.start[b+1] = t.start[b] + n
	}
	t.rows = make([]int32, t.start[len(count)])
	next := count[:0:0]
	next = append(next, t.start[:len(count)]...)
	for p, b := range of {
		if b >= 0 {
			t.rows[next[b]] = int32(p)
			next[b]++
		}
	}
	return t
}

// join extends each of the m input combinations in (k positions each; nil
// for the start relation's rows, combination c being row c of relation
// start) by the rows of st.right in the bucket of its key, and returns the
// joined combinations in an arena of exactly their number.
func join[K comparable](rels []relation, start int, in []int32, m int, st joinStep, t *buckets[K], key func(c int) (K, bool)) ([]int32, int) {
	k := len(rels)
	bucket := make([]int32, m)
	total := 0
	for c := range bucket {
		bucket[c] = -1
		if key, ok := key(c); ok {
			if b, found := t.id[key]; found {
				bucket[c] = b
				total += int(t.start[b+1] - t.start[b])
			}
		}
	}
	out := make([]int32, total*k)
	o := 0
	for c, b := range bucket {
		if b < 0 {
			continue
		}
		for _, r := range t.rows[t.start[b]:t.start[b+1]] {
			dst := out[o*k : o*k+k]
			if in == nil {
				dst[start] = int32(c)
			} else {
				copy(dst, in[c*k:c*k+k])
			}
			dst[st.right] = r
			o++
		}
	}
	return out, total
}

// crossJoin extends each of the m input combinations by every row of
// st.right.
func crossJoin(rels []relation, start int, in []int32, m int, st joinStep) ([]int32, int) {
	k, n := len(rels), rels[st.right].n
	out := make([]int32, m*n*k)
	o := 0
	for c := 0; c < m; c++ {
		for r := 0; r < n; r++ {
			dst := out[o*k : o*k+k]
			if in == nil {
				dst[start] = int32(c)
			} else {
				copy(dst, in[c*k:c*k+k])
			}
			dst[st.right] = int32(r)
			o++
		}
	}
	return out, m * n
}

// drain runs plan's steps over rels and returns every combination that
// survives them, len(rels) positions each, in the order the steps produce
// them.
func drain(rels []relation, plan *joinPlan) []int32 {
	k := len(rels)
	var in []int32
	m := rels[plan.start].n
	for _, st := range plan.steps {
		// left returns the row of relation rel in input combination c.
		left := func(c, rel int) storage.Row {
			if in == nil {
				return rels[rel].row(int32(c))
			}
			return rels[rel].row(in[c*k+rel])
		}
		right := &rels[st.right]
		switch len(st.conds) {
		case 0:
			in, m = crossJoin(rels, plan.start, in, m, st)
		case 1:
			// One conjunct keys by the column's own value.Key: no
			// composite key to build or hash per row.
			c := st.conds[0]
			t := buildBuckets(right, func(row storage.Row) (value.Key, bool) { return condKey(c, row[c.rcol]) })
			in, m = join(rels, plan.start, in, m, st, t, func(combo int) (value.Key, bool) {
				return condKey(c, left(combo, c.lrel)[c.lcol])
			})
		default:
			t := buildBuckets(right, func(row storage.Row) (joinKey, bool) {
				return compositeKey(st.conds, func(c equiCond) value.Value { return row[c.rcol] })
			})
			in, m = join(rels, plan.start, in, m, st, t, func(combo int) (joinKey, bool) {
				return compositeKey(st.conds, func(c equiCond) value.Value { return left(combo, c.lrel)[c.lcol] })
			})
		}
	}
	return in
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
func odometerOrder(arena []int32, rels []relation) []int32 {
	k := len(rels)
	m := len(arena) / k
	order, tmp := make([]int32, m), make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	var start []int32
	for p := k - 1; p >= 0; p-- {
		start = slices.Grow(start[:0], rels[p].n+1)[:rels[p].n+1]
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

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// forEachComboPlanned drains the planned joins and visits their
// combinations, as forEachCombo does, in odometer order, testing each
// against the residual of WHERE.
func (e *Env) forEachComboPlanned(blk *block, fr *frame, rels []relation, plan *joinPlan, reserve func(int), fn func(pos []int32) error) error {
	if e.Counters != nil {
		e.Counters.Planned.Add(1)
	}
	k := len(rels)
	arena := drain(rels, plan)
	var order []int32
	if !inOdometerOrder(arena, k) {
		order = odometerOrder(arena, rels)
	}
	m := len(arena) / k
	if reserve != nil {
		reserve(m)
	}
	where := residual(blk, plan)
	for i := 0; i < m; i++ {
		c := i
		if order != nil {
			c = int(order[i])
		}
		if err := e.visit(blk, fr, rels, where, arena[c*k:c*k+k:c*k+k], fn); err != nil {
			return err
		}
	}
	return nil
}

// residual returns blk's WHERE without the conjuncts plan's hash steps
// enforce; nil when they are all of it.
func residual(blk *block, plan *joinPlan) predFn {
	enforced := make([]bool, len(blk.conj))
	for _, st := range plan.steps {
		for _, c := range st.conds {
			enforced[c.conj] = true
		}
	}
	var rest []conjunct
	for i := range blk.conj {
		if !enforced[i] {
			rest = append(rest, blk.conj[i])
		}
	}
	return conjoin(rest)
}
