package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// Result is the output of a query: named columns and rows.
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// String renders the result as a simple aligned table (for the shell and
// examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.Kind() == value.KindString {
				s = v.Str() // print strings unquoted in tables
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	return b.String()
}

// Query binds and evaluates a top-level SELECT statement.
func (e *Env) Query(sel *sqlast.Select) (*Result, error) {
	return e.QueryBound(Bind(e.Store.Catalog(), sel))
}

// QueryBound evaluates a bound SELECT statement.
func (e *Env) QueryBound(b *Bound) (*Result, error) {
	clear(e.memo)
	b = b.current(e.Store.Catalog())
	if b.sel == nil {
		return nil, fmt.Errorf("exec: %T is not a query", b.stmt)
	}
	return e.evalSelect(b.sel, nil)
}

// sortedRow pairs an output row with its ORDER BY keys.
type sortedRow struct {
	row  storage.Row
	keys storage.Row
}

// evalSelect evaluates a bound query block inside parent, the frame of
// the enclosing block (nil for a top-level query).
func (e *Env) evalSelect(bs *boundSelect, parent *frame) (*Result, error) {
	fr := e.newFrame(len(bs.from), parent)
	rels, err := e.materialize(&bs.block, fr)
	if err != nil {
		return nil, err
	}
	if bs.colsErr != nil {
		return nil, bs.colsErr
	}
	var out []sortedRow
	if bs.agg {
		out, err = e.evalAggregateQuery(bs, fr, rels)
	} else {
		out, err = e.evalPlainQuery(bs, fr, rels)
	}
	if err != nil {
		return nil, err
	}

	if bs.sel.Distinct {
		out = distinctRows(out)
	}
	if len(bs.order) > 0 {
		sortRows(out, bs.sel.OrderBy)
	}
	if bs.limit != nil {
		if parent == nil {
			parent = e.rootFrame()
		}
		n, err := limitCount(bs.limit, parent)
		if err != nil {
			return nil, err
		}
		if n < len(out) {
			out = out[:n]
		}
	}

	res := &Result{Columns: slices.Clone(bs.cols), Rows: make([]storage.Row, len(out))}
	for i, sr := range out {
		res.Rows[i] = sr.row
	}
	return res, nil
}

// forEachCombo binds fr to every combination of rows from rels that
// satisfies the block's WHERE and invokes fn with the combination's row
// positions (pos[i] indexes rels[i]; fn must not keep pos), in
// nested-loop (odometer) order. A multi-relation block runs the planned
// join when planJoins returns a plan, and the odometer below otherwise.
// reserve, when non-nil, is told how many combinations the driver will
// visit before the first visit, when the driver knows: the planned join's
// drained count, a single relation's rows.
func (e *Env) forEachCombo(blk *block, fr *frame, rels []relation, reserve func(visits int), fn func(pos []int32) error) error {
	n := len(rels)
	if n == 0 {
		return e.visit(blk, fr, rels, blk.where, nil, fn)
	}
	for i := range rels {
		if rels[i].n == 0 {
			return nil // empty cross product
		}
	}
	if n > 1 {
		rows := make([]float64, n)
		for i := range rels {
			rows[i] = float64(rels[i].n)
		}
		if plan := e.planJoins(blk.equi, rows, e.distinctEstimator(blk, rels)); plan != nil {
			return e.forEachComboPlanned(blk, fr, rels, plan, reserve, fn)
		}
	} else if reserve != nil {
		reserve(rels[0].n)
	}
	idx := make([]int32, n)
	for {
		if err := e.visit(blk, fr, rels, blk.where, idx, fn); err != nil {
			return err
		}
		// Advance the index vector (odometer).
		k := n - 1
		for k >= 0 {
			idx[k]++
			if int(idx[k]) < rels[k].n {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// yieldEvery is how many combinations one Env visits between yields of its
// processor. Go runs a processor's expired timers and queued goroutines
// only when it schedules, and preempts a running goroutine only after
// 10 ms, so a read that visits thousands of combinations without blocking
// holds back every timer and goroutine queued behind it — a paced
// writer's wake-up, a connection's deadline — for as long as it runs. An
// Env lives for one statement, so statements that visit fewer
// combinations never yield.
const yieldEvery = 256

// visit binds fr to the rows at positions pos of rels and, when where
// holds, observes them and invokes fn.
func (e *Env) visit(blk *block, fr *frame, rels []relation, where predFn, pos []int32, fn func(pos []int32) error) error {
	if e.visited++; e.visited%yieldEvery == 0 {
		runtime.Gosched()
	}
	for i := range rels {
		fr.rows[i] = rels[i].row(pos[i])
	}
	if where != nil {
		if t, err := where(fr); err != nil || t != value.True {
			return err
		}
	}
	if e.Observer != nil {
		e.observe(blk, rels, pos)
	}
	return fn(pos)
}

// limitCount evaluates a LIMIT expression, which must be independent of
// the block's rows: it is bound in the enclosing scope, evaluated once in
// the enclosing frame, and must yield a non-negative integer.
func limitCount(limit valFn, fr *frame) (int, error) {
	v, err := limit(fr)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("exec: LIMIT must be a non-negative integer, got %s", v)
	}
	return int(v.Int()), nil
}

// evalPlainQuery handles non-aggregate queries.
func (e *Env) evalPlainQuery(bs *boundSelect, fr *frame, rels []relation) ([]sortedRow, error) {
	var out []sortedRow
	err := e.forEachCombo(&bs.block, fr, rels, nil, func([]int32) error {
		row, err := project(bs, fr)
		if err != nil {
			return err
		}
		keys, err := orderKeys(bs, fr, row)
		if err != nil {
			return err
		}
		out = append(out, sortedRow{row: row, keys: keys})
		return nil
	})
	return out, err
}

// project evaluates the select list in fr.
func project(bs *boundSelect, fr *frame) (storage.Row, error) {
	row := make(storage.Row, len(bs.proj))
	for i := range bs.proj {
		v, err := bs.proj[i].eval(fr)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// group is one group of an aggregate query: its member count, its first
// member and, when the block's aggregates fold arguments over members,
// every member, in visit order. Members are numbers into the set's
// positions.
type group struct {
	set     *groupSet
	n       int
	first   int32
	members []int32
}

// groupSet holds the row positions of an aggregate query's stored
// members, len(rels) positions each.
type groupSet struct {
	rels []relation
	pos  []int32
}

// bind binds rows, a frame's rows for the set's relations, to member m.
func (s *groupSet) bind(rows []storage.Row, m int32) {
	k := int32(len(s.rels))
	for i, p := range s.pos[m*k : m*k+k] {
		rows[i] = s.rels[i].row(p)
	}
}

// evalAggregateQuery handles GROUP BY / HAVING / aggregate-projection
// queries. Each visited combination is assigned a group; when the block's
// aggregates read members, every combination's positions are kept in one
// flat array, sized to the visit count when the driver knows it, and a
// counting sort of the group numbers then lays each group's members out
// contiguously in one more array. Otherwise only each group's first
// member is kept.
func (e *Env) evalAggregateQuery(bs *boundSelect, fr *frame, rels []relation) ([]sortedRow, error) {
	set := &groupSet{rels: rels}
	var groups []group
	var index map[string]int
	var key []byte
	var gids []int32 // each stored member's group, when bs.members
	reserve := func(visits int) {
		if bs.members {
			set.pos = make([]int32, 0, visits*len(rels))
			gids = make([]int32, 0, visits)
		}
	}
	stored := int32(0)
	err := e.forEachCombo(&bs.block, fr, rels, reserve, func(pos []int32) error {
		// Group key from GROUP BY expressions (single group if none).
		gi := 0
		if len(bs.groupBy) > 0 {
			key = key[:0]
			for _, g := range bs.groupBy {
				v, err := g(fr)
				if err != nil {
					return err
				}
				key = append(v.Append(key), 0)
			}
			var ok bool
			if gi, ok = index[string(key)]; !ok {
				if index == nil {
					index = make(map[string]int)
				}
				gi = len(groups)
				index[string(key)] = gi
			}
		}
		if gi == len(groups) {
			groups = append(groups, group{set: set})
		}
		g := &groups[gi]
		if g.n == 0 || bs.members {
			if g.n == 0 {
				g.first = stored
			}
			set.pos = append(set.pos, pos...)
			if bs.members {
				gids = append(gids, int32(gi))
			}
			stored++
		}
		g.n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if bs.members {
		layOutMembers(groups, gids)
	}

	// With no GROUP BY, an aggregate query over zero rows still produces
	// one row (e.g. SELECT COUNT(*) FROM empty → 0).
	if len(bs.groupBy) == 0 && len(groups) == 0 {
		groups = append(groups, group{set: set})
	}

	var out []sortedRow
	for gi := range groups {
		g := &groups[gi]
		if g.n > 0 {
			set.bind(fr.rows, g.first)
		} else {
			// Zero-row group: bind all-NULL rows so stray column references
			// evaluate to NULL rather than crashing.
			for i := range fr.rows {
				fr.rows[i] = make(storage.Row, len(bs.from[i].schema.Columns))
			}
		}
		fr.group = g
		if bs.having != nil {
			t, err := bs.having(fr)
			if err != nil {
				return nil, err
			}
			if t != value.True {
				fr.group = nil
				continue
			}
		}
		row, err := project(bs, fr)
		if err != nil {
			return nil, err
		}
		keys, err := orderKeys(bs, fr, row)
		if err != nil {
			return nil, err
		}
		out = append(out, sortedRow{row: row, keys: keys})
		fr.group = nil
	}
	return out, nil
}

// layOutMembers gives each group its members, in visit order, as one
// slice of a single array: a counting sort of gids, the group of each
// stored member.
func layOutMembers(groups []group, gids []int32) {
	start := make([]int32, len(groups)+1)
	for _, g := range gids {
		start[g+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := make([]int32, len(gids))
	for m, g := range gids {
		order[start[g]] = int32(m)
		start[g]++
	}
	lo := int32(0)
	for i := range groups {
		hi := lo + int32(groups[i].n)
		groups[i].members = order[lo:hi:hi]
		lo = hi
	}
}

// orderKeys computes ORDER BY sort keys for one output row.
func orderKeys(bs *boundSelect, fr *frame, row storage.Row) (storage.Row, error) {
	if len(bs.order) == 0 {
		return nil, nil
	}
	keys := make(storage.Row, len(bs.order))
	for i, k := range bs.order {
		if k.out >= 0 {
			keys[i] = row[k.out]
			continue
		}
		v, err := k.fn(fr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func distinctRows(rows []sortedRow) []sortedRow {
	seen := make(map[string]bool, len(rows))
	var out []sortedRow
	for _, sr := range rows {
		key := ""
		for _, v := range sr.row {
			key += v.String() + "\x00"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, sr)
		}
	}
	return out
}

// sortRows sorts by the precomputed keys; NULL sorts before any value,
// incomparable values compare equal.
func sortRows(rows []sortedRow, order []sqlast.OrderItem) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ob := range order {
			a, b := rows[i].keys[k], rows[j].keys[k]
			var cmp int
			switch {
			case a.IsNull() && b.IsNull():
				cmp = 0
			case a.IsNull():
				cmp = -1
			case b.IsNull():
				cmp = 1
			default:
				c, ok := value.Compare(a, b)
				if !ok {
					c = 0
				}
				cmp = c
			}
			if ob.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}
