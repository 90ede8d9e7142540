// Package storage implements the in-memory relational storage engine
// underneath the rule system: heap tables holding multisets of tuples,
// system tuple handles, and transaction rollback by reinstating the table
// versions a transaction replaced.
//
// Following the paper (Section 2), every tuple carries a "system tuple
// handle — a distinct, non-reusable value identifying the tuple and its
// containing table". Handles are allocated from a monotonically increasing
// counter and are never reused, even across rolled-back transactions.
// Duplicate tuples may appear in a table; each occupies its own handle.
//
// Concurrency model (see also snapshot.go). The store itself follows the
// paper's single-stream model — one writer, no locking — but every commit
// (and every DDL statement) publishes an immutable point-in-time Snapshot
// behind an atomic pointer. Tables are copy-on-write per component (see
// heap.go): the first mutation of a table after a publish makes a shallow
// version of it, and each heap chunk is copied only when it is first
// mutated. The handle directory, every secondary index and every column
// statistic is a persistent hash trie (trie.go) whose nodes are copied the
// same way, so a write copies one root-to-leaf path of each trie it
// changes. The published versions are therefore frozen forever and
// readers traverse them with zero locking, while a one-row update, insert
// or delete copies a chunk or two and a few trie paths rather than the
// table, its directory or its indexes.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

// Handle is a system tuple handle (Section 2 of the paper): a distinct,
// non-reusable identifier for a tuple and its containing table. Handle 0 is
// never allocated and means "no tuple".
type Handle uint64

// Row is a tuple's column values, in schema order. Rows handed out by the
// store are snapshots; callers must not mutate them.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Equal reports value-wise equality (NULL equal to NULL).
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Equal(s[i]) {
			return false
		}
	}
	return true
}

// String renders the row as (v1, v2, ...).
func (r Row) String() string {
	out := "("
	for i, v := range r {
		if i > 0 {
			out += ", "
		}
		out += v.String()
	}
	return out + ")"
}

// Tuple is a stored tuple: its handle, containing table, and current values.
// Once a tuple has been published in a snapshot it is immutable: updates
// replace the *Tuple rather than assigning Values in place.
type Tuple struct {
	Handle Handle
	Table  string
	Values Row
}

// tableData is one version of a table's physical representation: a chunked
// heap of tuples (duplicates allowed), the handle directory mapping each
// handle to its heap position, secondary indexes and column statistics.
// The directory, every index and every statistic is a trie (trie.go).
//
// gen is the store generation the version was made in (see heap.go and
// Store.writable). The version shares every heap chunk and trie node with
// the one it was made from; their own generation stamps tell the writer
// whether it may mutate them in place or must copy them first.
type tableData struct {
	schema  *catalog.Table
	gen     uint64
	heap    heap
	dir     trie[Handle, int]
	indexes []secondaryIndex
	stats   []colStats // per-column cardinality stats (see stats.go)
}

// Hash is the handle's key hash in the handle directory: the handle
// itself. Handles are allocated in sequence by the store, never by a
// client, so their low bits spread them evenly over a trie node's slots,
// and no two handles share a hash.
func (h Handle) Hash() uint64 { return uint64(h) }

// accessCounters is the atomic access-path counter pair. It is shared by
// pointer between the Store and every Snapshot it publishes, so indexed
// and scanned reads count identically no matter which side served them.
type accessCounters struct {
	heapScans    atomic.Int64
	indexLookups atomic.Int64
}

// Store is the storage engine. It is not safe for concurrent mutation; the
// paper's model of system execution is a single stream of operation blocks
// with concurrency "transparent" below the abstraction (Section 2.1).
// Concurrent readers never touch the Store directly: they load the current
// Snapshot (an atomic pointer read) and traverse its frozen structures with
// no locking at all. The only words the two sides share are the atomic
// access-path counters.
type Store struct {
	cat    *catalog.Catalog
	next   Handle
	tables map[string]*tableData
	// saved holds, for every table the open transaction has written, the
	// version it replaced on its first write: the table as it stood at
	// Begin. Rollback puts them back.
	saved []*tableData
	inTxn bool

	counters *accessCounters
	snap     atomic.Pointer[Snapshot]
	cow      cowState
}

// New returns an empty store with its own catalog and an (empty) published
// snapshot.
func New() *Store {
	s := &Store{
		cat:      catalog.New(),
		tables:   make(map[string]*tableData),
		counters: &accessCounters{},
	}
	s.publish()
	return s
}

// Catalog returns the store's schema catalog.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// CreateTable registers a new table. DDL is not undoable and is rejected
// inside a transaction.
func (s *Store) CreateTable(t *catalog.Table) error {
	if s.inTxn {
		return fmt.Errorf("storage: CREATE TABLE inside a transaction is not supported")
	}
	cat := s.cat.Clone()
	if err := cat.Create(t); err != nil {
		return err
	}
	s.cat = cat
	s.tables[t.Name] = &tableData{
		schema: t,
		gen:    s.cow.gen,
		heap:   heap{gen: s.cow.gen},
		stats:  make([]colStats, len(t.Columns)),
	}
	s.publish()
	return nil
}

// DropTable removes a table and all its tuples. Not undoable.
func (s *Store) DropTable(name string) error {
	if s.inTxn {
		return fmt.Errorf("storage: DROP TABLE inside a transaction is not supported")
	}
	t, err := s.cat.Lookup(name)
	if err != nil {
		return err
	}
	cat := s.cat.Clone()
	if err := cat.Drop(t.Name); err != nil {
		return err
	}
	s.cat = cat
	delete(s.tables, t.Name)
	s.publish()
	return nil
}

func (s *Store) table(name string) (*tableData, error) {
	return lookupTable(s.cat, s.tables, name)
}

// Begin starts a transaction. Nested transactions are not supported: the
// paper's transaction is one external operation block plus its
// rule-generated blocks, all undone together on rollback. Begin advances
// the generation, which freezes every table version as it stands, so the
// transaction's writes copy before they mutate and leave those versions
// intact for Rollback.
func (s *Store) Begin() error {
	if s.inTxn {
		return fmt.Errorf("storage: transaction already in progress")
	}
	s.inTxn = true
	s.cow.gen++
	return nil
}

// InTxn reports whether a transaction is open.
func (s *Store) InTxn() bool { return s.inTxn }

// Commit ends the transaction, dropping the versions it replaced and
// publishing the new committed state as the current snapshot.
func (s *Store) Commit() error {
	if !s.inTxn {
		return fmt.Errorf("storage: no transaction in progress")
	}
	s.inTxn = false
	s.dropSaved()
	s.publish()
	return nil
}

// Rollback returns the store to its state at Begin by reinstating the
// table versions the transaction replaced; it copies and allocates
// nothing, however much the transaction wrote. Heap order is the
// pre-transaction order. Handles allocated during the transaction are not
// reused afterwards. The published snapshot is left as it was.
func (s *Store) Rollback() error {
	if !s.inTxn {
		return fmt.Errorf("storage: no transaction in progress")
	}
	for _, td := range s.saved {
		s.tables[td.schema.Name] = td
	}
	s.inTxn = false
	s.dropSaved()
	return nil
}

// dropSaved empties s.saved, releasing the versions it held.
func (s *Store) dropSaved() {
	clear(s.saved)
	s.saved = s.saved[:0]
}

// writable returns a version of td the writer may mutate: td itself when it
// was made since the last publish or Begin, or else a shallow version
// (installed in s.tables) that shares every component with td; inside a
// transaction td is saved for Rollback. The small per-column and
// per-index slices of trie roots are copied here; the trie nodes and heap
// chunks are copied by the mutation primitives on first write.
func (s *Store) writable(td *tableData) *tableData {
	if td.gen == s.cow.gen {
		return td
	}
	if s.inTxn {
		s.saved = append(s.saved, td)
	}
	c := *td
	c.gen = s.cow.gen
	c.indexes = slices.Clone(td.indexes)
	c.stats = slices.Clone(td.stats)
	s.tables[td.schema.Name] = &c
	return &c
}

// applyInsert, applyRemove and applySet are the only primitives that mutate
// a table's tuples. Forward operations and WAL replay go through them, so
// the handle directory, secondary indexes and statistics stay in sync.
// Each takes the copy-on-write step first, so published snapshots and the
// versions saved for Rollback are never touched.

func (s *Store) applyInsert(td *tableData, t *Tuple) {
	td = s.writable(td)
	w := &s.cow
	td.dir.put(w, t.Handle, td.heap.n)
	td.heap.push(w, t)
	for i := range td.indexes {
		td.indexes[i].add(w, t.Values, t.Handle)
	}
	for i, v := range t.Values {
		td.stats[i].add(w, v)
	}
}

// applyRemove deletes the tuple with handle h, returning its final values.
// A handle absent from the table is an explicit error: the position lookup
// must not fall through to map-zero-value position 0, which would silently
// remove an unrelated tuple.
func (s *Store) applyRemove(td *tableData, h Handle) (Row, error) {
	td = s.writable(td)
	w := &s.cow
	pos, ok := td.dir.get(h)
	if !ok {
		return nil, fmt.Errorf("storage: remove of handle %d absent from table %q", h, td.schema.Name)
	}
	t := td.heap.at(pos)
	if moved := td.heap.swapRemove(w, pos); moved != nil {
		td.dir.put(w, moved.Handle, pos)
	}
	td.dir.del(w, h)
	for i := range td.indexes {
		td.indexes[i].remove(w, t.Values, h)
	}
	for i, v := range t.Values {
		td.stats[i].remove(w, v)
	}
	return t.Values, nil
}

// applySet replaces the values of the tuple with handle h. The stored
// *Tuple is replaced, not mutated: the old one may be shared with a
// published snapshot. Only the heap chunk holding the tuple is written,
// and only the indexes and statistics of columns whose key changed are
// re-keyed. Like applyRemove, an absent handle is an explicit error rather
// than a silent overwrite of position 0.
func (s *Store) applySet(td *tableData, h Handle, next Row) error {
	td = s.writable(td)
	w := &s.cow
	pos, ok := td.dir.get(h)
	if !ok {
		return fmt.Errorf("storage: set of handle %d absent from table %q", h, td.schema.Name)
	}
	t := td.heap.at(pos)
	for i := range td.indexes {
		ix := &td.indexes[i]
		if sameKey(t.Values[ix.col], next[ix.col]) {
			continue
		}
		ix.remove(w, t.Values, h)
		ix.add(w, next, h)
	}
	for i := range td.stats {
		if sameKey(t.Values[i], next[i]) {
			continue
		}
		cs := &td.stats[i]
		cs.remove(w, t.Values[i])
		cs.add(w, next[i])
	}
	td.heap.set(w, pos, &Tuple{Handle: h, Table: t.Table, Values: next})
	return nil
}

// sameKey reports whether a and b have the same value.KeyExact key (NULL
// keys as NULL). Indexes and statistics hold keys only, so a column whose
// key did not change needs no maintenance.
func sameKey(a, b value.Value) bool {
	ka, oka := value.KeyExact(a)
	kb, okb := value.KeyExact(b)
	return oka == okb && ka == kb
}

// coerceRow validates a row against the table schema and coerces its
// values in place.
func coerceRow(schema *catalog.Table, row Row) error {
	if len(row) != len(schema.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d",
			schema.Name, len(schema.Columns), len(row))
	}
	for i, v := range row {
		col := schema.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", schema.Name, col.Name)
			}
			continue
		}
		cv, err := value.Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("storage: column %s.%s: %v", schema.Name, col.Name, err)
		}
		row[i] = cv
	}
	return nil
}

// Insert adds a tuple to the named table and returns its fresh handle. It
// takes ownership of row: the values are coerced in place and the row
// becomes the stored tuple's, so the caller must not use it again.
func (s *Store) Insert(table string, row Row) (Handle, error) {
	td, err := s.table(table)
	if err != nil {
		return 0, err
	}
	if err := coerceRow(td.schema, row); err != nil {
		return 0, err
	}
	s.next++
	h := s.next
	s.applyInsert(td, &Tuple{Handle: h, Table: td.schema.Name, Values: row})
	return h, nil
}

// Delete removes the tuple with the given handle, returning its final
// values. It fails if the handle does not identify a live tuple.
func (s *Store) Delete(h Handle) (table string, old Row, err error) {
	t, ok := s.find(h)
	if !ok {
		return "", nil, fmt.Errorf("storage: delete of unknown handle %d", h)
	}
	old, err = s.applyRemove(s.tables[t.Table], h)
	if err != nil {
		return "", nil, err
	}
	return t.Table, old, nil
}

// Update assigns new values to selected columns of the tuple with the given
// handle and returns the pre-update row. Assignments are coerced against
// the schema.
func (s *Store) Update(h Handle, assign map[int]value.Value) (table string, old Row, err error) {
	t, ok := s.find(h)
	if !ok {
		return "", nil, fmt.Errorf("storage: update of unknown handle %d", h)
	}
	td := s.tables[t.Table]
	old = t.Values
	next := old.Clone()
	for idx, v := range assign {
		if idx < 0 || idx >= len(next) {
			return "", nil, fmt.Errorf("storage: column index %d out of range for table %q", idx, t.Table)
		}
		col := td.schema.Columns[idx]
		if v.IsNull() {
			if col.NotNull {
				return "", nil, fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Table, col.Name)
			}
			next[idx] = v
			continue
		}
		cv, cerr := value.Coerce(v, col.Type)
		if cerr != nil {
			return "", nil, fmt.Errorf("storage: column %s.%s: %v", t.Table, col.Name, cerr)
		}
		next[idx] = cv
	}
	if err := s.applySet(td, h, next); err != nil {
		return "", nil, err
	}
	return t.Table, old, nil
}

// find locates a live tuple by handle.
func (s *Store) find(h Handle) (*Tuple, bool) { return findIn(s.tables, h) }

// Get returns the live tuple with the given handle.
func (s *Store) Get(h Handle) (*Tuple, bool) { return s.find(h) }

// CheckHandleIndex verifies every table's handle directory against its
// heap, returning the first discrepancy. Tests run it after randomized
// operation histories (including rollbacks and replays) to prove no
// directory can ever disagree with its heap: every position a directory
// names must hold the tuple of that handle, and the heap's shape must
// match its row count.
func (s *Store) CheckHandleIndex() error {
	for _, td := range s.tables {
		if err := td.checkHeap(); err != nil {
			return err
		}
	}
	return nil
}

// checkHeap verifies one table's heap shape and its directory: the spine
// holds ceil(n/chunkSize) chunks, every slot below n is filled and every
// slot beyond it is empty, and the directory maps exactly the heap's
// handles to their positions.
func (td *tableData) checkHeap() error {
	name, h := td.schema.Name, &td.heap
	if want := (h.n + chunkMask) >> chunkShift; len(h.spine) != want {
		return fmt.Errorf("storage: table %q: heap of %d rows has %d chunks, want %d", name, h.n, len(h.spine), want)
	}
	for i, c := range h.spine {
		for j, t := range c.rows {
			if pos := i<<chunkShift | j; (t != nil) != (pos < h.n) {
				return fmt.Errorf("storage: table %q: heap slot %d filled=%v with %d rows", name, pos, t != nil, h.n)
			}
		}
	}
	if err := td.dir.check(); err != nil {
		return fmt.Errorf("storage: table %q: directory: %v", name, err)
	}
	if td.dir.len() != h.n {
		return fmt.Errorf("storage: table %q: directory holds %d handles, heap holds %d rows", name, td.dir.len(), h.n)
	}
	var err error
	td.dir.each(func(hd Handle, pos int) bool {
		switch {
		case pos < 0 || pos >= h.n:
			err = fmt.Errorf("storage: table %q: directory puts handle %d at position %d of %d", name, hd, pos, h.n)
		case h.at(pos).Handle != hd:
			err = fmt.Errorf("storage: table %q: directory puts handle %d at position %d, which holds %d", name, hd, pos, h.at(pos).Handle)
		}
		return err == nil
	})
	return err
}

// CopiedCells reports how many cells copy-on-write has copied since the
// store was made: heap spine entries and chunk slots, the trie slots on
// the paths a write copies (handle directory, secondary indexes, column
// statistics) and the handles of the index buckets it replaces. It
// counts on the writer side only and is deterministic for a given
// operation history, so tests pin the copying cost of an operation with
// it.
func (s *Store) CopiedCells() int64 { return s.cow.copied }

// Scan calls fn for every tuple of the named table, in the store's current
// physical order. fn must not modify the table. A false return stops the
// scan.
func (s *Store) Scan(table string, fn func(*Tuple) bool) error {
	td, err := s.table(table)
	if err != nil {
		return err
	}
	scanTable(td, s.counters, fn)
	return nil
}

// View returns a position-indexed view of the named table's current
// version (see View), counted as one heap scan. The view is valid until
// the next write to the table.
func (s *Store) View(table string) (View, error) {
	td, err := s.table(table)
	if err != nil {
		return View{}, err
	}
	return viewTable(td, s.counters), nil
}

// Count returns the number of tuples in the named table.
func (s *Store) Count(table string) (int, error) {
	td, err := s.table(table)
	if err != nil {
		return 0, err
	}
	return td.heap.n, nil
}

// Tuples returns the tuples of the named table sorted by handle — a
// deterministic order used by dumps, tests and result printers. The
// returned tuples are clones: callers may mutate them without aliasing
// committed state (the published snapshots share the live tuples).
func (s *Store) Tuples(table string) ([]*Tuple, error) {
	td, err := s.table(table)
	if err != nil {
		return nil, err
	}
	return sortedTupleClones(td), nil
}

// sortedTupleClones is the shared body of Store.Tuples and Snapshot.Tuples.
func sortedTupleClones(td *tableData) []*Tuple {
	out := make([]*Tuple, 0, td.heap.n)
	td.heap.scan(func(t *Tuple) bool {
		out = append(out, &Tuple{Handle: t.Handle, Table: t.Table, Values: t.Values.Clone()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}

// NextHandle reports the next handle that would be allocated. Used by
// tests asserting non-reuse.
func (s *Store) NextHandle() Handle { return s.next + 1 }

// ---------------------------------------------------------------------------
// Recovery primitives
//
// Crash recovery replays composed net transition effects from the
// write-ahead log; the effects address tuples by their system handles, so
// replay must reproduce handles exactly rather than allocate fresh ones.
// These primitives are only legal outside transactions (recovery happens
// before the engine serves anything) and go through the same applyInsert /
// applyRemove / applySet mutation paths as normal operation, so secondary
// indexes and the handle directory stay consistent. They deliberately do
// not publish: recovery replays many records and publishes once at the end
// (see engine.PublishSnapshot), while the replication follower publishes
// after every applied record for per-record read visibility.
// ---------------------------------------------------------------------------

// ReplayInsert inserts a tuple with an explicit, pre-assigned handle and
// advances the handle counter past it. Like Insert, it takes ownership of
// row.
func (s *Store) ReplayInsert(table string, h Handle, row Row) error {
	if s.inTxn {
		return fmt.Errorf("storage: replay inside a transaction")
	}
	if h == 0 {
		return fmt.Errorf("storage: replay insert with zero handle")
	}
	td, err := s.table(table)
	if err != nil {
		return err
	}
	if err := coerceRow(td.schema, row); err != nil {
		return err
	}
	if _, live := s.find(h); live {
		return fmt.Errorf("storage: replay insert of live handle %d", h)
	}
	s.applyInsert(td, &Tuple{Handle: h, Table: td.schema.Name, Values: row})
	if h > s.next {
		s.next = h
	}
	return nil
}

// ReplayDelete removes the tuple with the given handle.
func (s *Store) ReplayDelete(h Handle) error {
	if s.inTxn {
		return fmt.Errorf("storage: replay inside a transaction")
	}
	t, ok := s.find(h)
	if !ok {
		return fmt.Errorf("storage: replay delete of unknown handle %d", h)
	}
	_, err := s.applyRemove(s.tables[t.Table], h)
	return err
}

// ReplaySet overwrites the full row of a live tuple (update replay: the
// log records final values, not deltas). Like Insert, it takes ownership
// of row.
func (s *Store) ReplaySet(h Handle, row Row) error {
	if s.inTxn {
		return fmt.Errorf("storage: replay inside a transaction")
	}
	t, ok := s.find(h)
	if !ok {
		return fmt.Errorf("storage: replay set of unknown handle %d", h)
	}
	td := s.tables[t.Table]
	if err := coerceRow(td.schema, row); err != nil {
		return err
	}
	return s.applySet(td, h, row)
}

// RestoreNextHandle advances the handle counter so that the next
// allocation follows last, exactly as it would have pre-crash. Handles
// consumed by transactions that rolled back after the last logged commit
// are deliberately not reproduced; handles only ever need to be unique and
// monotone, never dense.
func (s *Store) RestoreNextHandle(last Handle) {
	if last > s.next {
		s.next = last
	}
}

// Clone deep-copies the store: catalog, data, and handle counter. The clone
// has no open transaction. Clone exists for reference implementations and
// benchmarks that need to recompute effects from a previous state.
func (s *Store) Clone() *Store {
	if s.inTxn {
		panic("storage: Clone during open transaction")
	}
	c := New()
	c.next = s.next
	for _, name := range s.cat.Names() {
		t, _ := s.cat.Lookup(name)
		// Schemas are immutable; share them.
		if err := c.CreateTable(t); err != nil {
			panic(err)
		}
		src := s.tables[name]
		dst := c.writable(c.tables[name])
		src.heap.scan(func(tup *Tuple) bool {
			c.applyInsert(dst, &Tuple{Handle: tup.Handle, Table: tup.Table, Values: tup.Values.Clone()})
			return true
		})
	}
	for _, name := range s.cat.IndexNames() {
		def, _ := s.cat.Index(name)
		if err := c.CreateIndex(def.Name, def.Table, def.Column); err != nil {
			panic(err)
		}
	}
	c.publish()
	return c
}
