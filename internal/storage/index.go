// Secondary hash indexes.
//
// A CREATE INDEX declares a persistent hash index over one column of a
// table: a trie (trie.go) from column-value key to the handles of the
// tuples holding that value. A write re-keys one entry: it copies the
// trie's root-to-leaf path to that key and that key's handle bucket, never
// the other buckets. Indexes are maintained incrementally by the
// tuple-mutation primitives in storage.go (applyInsert, applyRemove,
// applySet); rollback reinstates the table versions, indexes included,
// that the transaction replaced. NULLs are not indexed: `col = x` is never
// True when col is NULL.
//
// Keyspaces. Stored values are keyed with value.KeyExact; because
// coerceRow forces every stored value to its column's declared kind, an
// index over an INTEGER column holds only exact-integer keys and an index
// over a FLOAT column holds only float-image keys. Probes arriving with
// the other numeric kind are converted by probeKey into the column's
// keyspace, reproducing value.Compare's cross-kind equality; probes the
// index cannot answer exactly (an integral float at or beyond 2^53
// probing an INTEGER column has several int64 preimages) make the lookup
// decline so the caller falls back to a heap scan.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

// secondaryIndex is the physical structure behind one CREATE INDEX.
// Bucket order is arbitrary; IndexedLookup re-orders matches by physical
// position so indexed access preserves heap-scan order.
type secondaryIndex struct {
	def  *catalog.Index
	col  int        // column position in the schema
	kind value.Kind // declared column kind, selects the probe keyspace
	keys trie[value.Key, bucket]
}

// bucket is the handles of one index key: the first in one, any others in
// more, so a key of a unique column needs no allocation of its own. Like a
// heap chunk, more carries the generation it was made in: the writer
// edits a more of its own generation in place and replaces any other, so
// a published snapshot's buckets never change and a bulk load into one
// generation stays linear.
type bucket struct {
	one  Handle // never 0 while the key is present
	gen  uint64 // generation more was made in
	more []Handle
}

// handles returns the bucket's handles in a new slice.
func (b bucket) handles() []Handle {
	if b.one == 0 {
		return nil
	}
	return append([]Handle{b.one}, b.more...)
}

// ownMore makes b.more the writer's own, with room for extra handles.
func (b *bucket) ownMore(w *cowState, extra int) {
	if b.gen == w.gen {
		return
	}
	more := make([]Handle, len(b.more), len(b.more)+extra)
	copy(more, b.more)
	w.copied += int64(len(b.more))
	b.gen, b.more = w.gen, more
}

// newSecondaryIndex builds an index over the table's current contents.
func newSecondaryIndex(w *cowState, def *catalog.Index, td *tableData) secondaryIndex {
	col := td.schema.ColumnIndex(def.Column)
	ix := secondaryIndex{def: def, col: col, kind: td.schema.Columns[col].Type}
	td.heap.scan(func(t *Tuple) bool {
		ix.add(w, t.Values, t.Handle)
		return true
	})
	return ix
}

func (ix *secondaryIndex) add(w *cowState, row Row, h Handle) {
	k, ok := value.KeyExact(row[ix.col])
	if !ok {
		return // NULL is not indexed
	}
	b := ix.keys.ref(w, k)
	if b.one == 0 {
		b.one = h
		return
	}
	b.ownMore(w, 1)
	b.more = append(b.more, h)
}

func (ix *secondaryIndex) remove(w *cowState, row Row, h Handle) {
	k, ok := value.KeyExact(row[ix.col])
	if !ok {
		return
	}
	old, _ := ix.keys.get(k)
	if old.one == h {
		if len(old.more) == 0 {
			ix.keys.del(w, k)
			return
		}
		// Shortening more writes none of its handles.
		b := ix.keys.ref(w, k)
		last := len(b.more) - 1
		b.one, b.more = b.more[last], b.more[:last]
		return
	}
	i := slices.Index(old.more, h)
	if i < 0 {
		return
	}
	b := ix.keys.ref(w, k)
	b.ownMore(w, 0)
	last := len(b.more) - 1
	b.more[i] = b.more[last]
	b.more = b.more[:last]
}

// indexOn returns the secondary index over the given column, or nil.
func indexOn(td *tableData, col int) *secondaryIndex {
	for i := range td.indexes {
		if td.indexes[i].col == col {
			return &td.indexes[i]
		}
	}
	return nil
}

// probeOutcome classifies what an equality probe against an index can
// establish.
type probeOutcome int

const (
	probeHit   probeOutcome = iota // the key identifies the only possible bucket
	probeEmpty                     // no stored value can compare equal to the probe
	probeScan                      // the index cannot answer exactly; fall back to scanning
)

// maxExactFloat is 2^53, the first float64 whose integer preimage under
// float64-conversion is ambiguous.
const maxExactFloat = float64(1 << 53)

// probeKey converts an equality-probe value into the keyspace of a column
// of kind ck. The contract mirrors value.Compare: a stored value compares
// equal to the probe iff its KeyExact key equals the returned key (on
// probeHit), no stored value compares equal (on probeEmpty), or the index
// cannot decide (on probeScan).
func probeKey(v value.Value, ck value.Kind) (value.Key, probeOutcome) {
	if v.IsNull() {
		return value.Key{}, probeEmpty
	}
	if v.Kind() == ck {
		k, _ := value.KeyExact(v)
		return k, probeHit
	}
	switch {
	case ck == value.KindFloat && v.Kind() == value.KindInt:
		// Compare takes the int through its float64 image; stored floats
		// match exactly when they equal that image.
		k, _ := value.KeyNumeric(v)
		return k, probeHit
	case ck == value.KindInt && v.Kind() == value.KindFloat:
		f := v.Float()
		if f != math.Trunc(f) || math.IsNaN(f) {
			// Every int64's float64 image is integral, so a non-integral
			// (or NaN) probe matches no stored integer.
			return value.Key{}, probeEmpty
		}
		if f >= maxExactFloat || f <= -maxExactFloat {
			// Several distinct int64s share this float64 image; the
			// exact-integer keyspace cannot answer the probe.
			return value.Key{}, probeScan
		}
		k, _ := value.KeyExact(value.NewInt(int64(f)))
		return k, probeHit
	default:
		// Incomparable kinds: Compare yields unknown for every stored
		// value, so the selection is provably empty.
		return value.Key{}, probeEmpty
	}
}

// CreateIndex defines a secondary hash index named name over
// table(column) and builds it from the table's current contents. Like
// other DDL it is not undoable and is rejected inside a transaction.
func (s *Store) CreateIndex(name, table, column string) error {
	if s.inTxn {
		return fmt.Errorf("storage: CREATE INDEX inside a transaction is not supported")
	}
	cat := s.cat.Clone()
	def, err := cat.CreateIndex(name, table, column)
	if err != nil {
		return err
	}
	s.cat = cat
	td := s.writable(s.tables[def.Table])
	td.indexes = append(td.indexes, newSecondaryIndex(&s.cow, def, td))
	s.publish()
	return nil
}

// DropIndex removes a secondary index. Not undoable; rejected inside a
// transaction.
func (s *Store) DropIndex(name string) error {
	if s.inTxn {
		return fmt.Errorf("storage: DROP INDEX inside a transaction is not supported")
	}
	def, err := s.cat.Index(name)
	if err != nil {
		return err
	}
	cat := s.cat.Clone()
	if err := cat.DropIndex(name); err != nil {
		return err
	}
	s.cat = cat
	td := s.writable(s.tables[def.Table])
	for i, ix := range td.indexes {
		if ix.def.Name == def.Name {
			td.indexes = append(td.indexes[:i], td.indexes[i+1:]...)
			break
		}
	}
	s.publish()
	return nil
}

// HasIndex reports whether a secondary index covers the given column of
// the named table. The executor's access-path pass asks this before
// spending any work computing probe values.
func (s *Store) HasIndex(table string, col int) bool {
	td, err := s.table(table)
	if err != nil {
		return false
	}
	return indexOn(td, col) != nil
}

// IndexedLookup serves the selection `table.column = v` (or, with several
// values, `column IN (v1, v2, ...)`) from a secondary index. On ok, the
// returned tuples are exactly those for which a heap scan would find the
// comparison True, in heap-scan (physical) order — indexed and scanned
// access are indistinguishable to the caller. ok is false when no index
// covers the column or some probe cannot be answered exactly; the caller
// must then fall back to scanning, and no counters move.
func (s *Store) IndexedLookup(table string, col int, vals ...value.Value) (tuples []*Tuple, ok bool, err error) {
	td, err := s.table(table)
	if err != nil {
		return nil, false, err
	}
	tuples, ok = indexedLookup(td, s.counters, col, vals...)
	return tuples, ok, nil
}

// indexedLookup is the shared body of Store.IndexedLookup and
// Snapshot.IndexedLookup, operating on one physical table representation.
func indexedLookup(td *tableData, c *accessCounters, col int, vals ...value.Value) ([]*Tuple, bool) {
	ix := indexOn(td, col)
	if ix == nil {
		return nil, false
	}
	var positions []int
	var seen map[value.Key]bool
	if len(vals) > 1 {
		seen = make(map[value.Key]bool, len(vals))
	}
	for _, v := range vals {
		k, outcome := probeKey(v, ix.kind)
		switch outcome {
		case probeScan:
			return nil, false
		case probeEmpty:
			continue
		}
		if seen != nil {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		b, _ := ix.keys.get(k)
		if b.one == 0 {
			continue
		}
		pos, _ := td.dir.get(b.one)
		positions = append(positions, pos)
		for _, h := range b.more {
			pos, _ := td.dir.get(h)
			positions = append(positions, pos)
		}
	}
	c.indexLookups.Add(1)
	if len(positions) == 0 {
		return nil, true
	}
	// Distinct keys hold disjoint handle sets, so the positions are
	// unique; sorting them reproduces heap-scan order.
	sort.Ints(positions)
	tuples := make([]*Tuple, len(positions))
	for i, pos := range positions {
		tuples[i] = td.heap.at(pos)
	}
	return tuples, true
}

// AccessStats reports the cumulative access-path counters: full heap
// scans started (Scan calls) and selections served from a secondary
// index. The counters are atomic — lock-free snapshot readers increment
// them concurrently with the writer — so a reading taken while readers
// run returns, for each counter, a value that was current at some instant
// during the call.
func (s *Store) AccessStats() (heapScans, indexLookups int64) {
	return s.counters.heapScans.Load(), s.counters.indexLookups.Load()
}

// CheckIndexes verifies every secondary index against a from-scratch
// rebuild of its buckets into a plain map, returning the first discrepancy
// found, and checks the shape of every index trie. Tests run it after
// randomized operation histories (including rollbacks) to prove
// incremental maintenance matches the ground truth.
func (s *Store) CheckIndexes() error {
	for name, td := range s.tables {
		for i := range td.indexes {
			ix := &td.indexes[i]
			want := map[value.Key][]Handle{}
			td.heap.scan(func(t *Tuple) bool {
				if k, ok := value.KeyExact(t.Values[ix.col]); ok {
					want[k] = append(want[k], t.Handle)
				}
				return true
			})
			if err := ix.keys.check(); err != nil {
				return fmt.Errorf("storage: index %q on %q: %v", ix.def.Name, name, err)
			}
			if ix.keys.len() != len(want) {
				return fmt.Errorf("storage: index %q on %q: %d live keys vs %d rebuilt",
					ix.def.Name, name, ix.keys.len(), len(want))
			}
			for k, hs := range want {
				if b, _ := ix.keys.get(k); !sameHandles(b.handles(), hs) {
					return fmt.Errorf("storage: index %q on %q: bucket %v: live handles %v vs rebuilt %v",
						ix.def.Name, name, k, b.handles(), hs)
				}
			}
		}
	}
	return nil
}

// sameHandles reports set equality of two handle slices (buckets never
// hold duplicates).
func sameHandles(a, b []Handle) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Handle(nil), a...)
	bs := append([]Handle(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
