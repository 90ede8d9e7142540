// Snapshot reads: the lock-free half of the storage engine.
//
// Every commit (and every DDL statement) publishes an immutable
// point-in-time Snapshot behind an atomic pointer. A Snapshot captures the
// catalog and one version of every table (heap spine and chunks, and the
// tries of the handle directory, the secondary indexes and the column
// statistics) as frozen
// structures: once published they are never mutated again — the writer
// copies each component before its first mutation after a publish
// (copy-on-write per component, see heap.go and Store.writable). Readers
// therefore need no lock of any kind: loading the pointer is one atomic
// read, and everything reachable from it is immutable. The atomic
// store/load pair provides the happens-before edge that makes the frozen
// structures safe to traverse from any goroutine.
//
// Memory behavior: a publish is O(#tables) — it shallow-copies the table
// pointer map and advances the store's generation, which freezes every
// component at once. Copies happen lazily on the write side, at most once
// per component per publish interval: a one-row update copies the heap
// spine, the tuple's chunk and one trie path in the statistics of each
// column whose key changed; an insert or a delete also copies a path of
// the handle directory and of each index. Old versions stay alive only
// while some reader still holds the snapshot that references them; the
// garbage collector reclaims them afterwards.
package storage

import (
	"fmt"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

// Snapshot is an immutable committed database state. It implements the
// executor's read interface (exec.Store) so queries and dumps run against
// it exactly as they would against the live store; the mutating methods
// fail, pinning the read-only contract at runtime as well as in the type
// system.
type Snapshot struct {
	cat      *catalog.Catalog
	tables   map[string]*tableData
	counters *accessCounters
}

// publish installs the current tables, with the current catalog, as the
// store's published snapshot, and advances the generation so that every
// component they reach is frozen. Writer-side only.
func (s *Store) publish() *Snapshot {
	tables := make(map[string]*tableData, len(s.tables))
	for name, td := range s.tables {
		tables[name] = td
	}
	snap := &Snapshot{cat: s.cat, tables: tables, counters: s.counters}
	s.snap.Store(snap)
	s.cow.gen++
	return snap
}

// Snapshot returns the currently published committed state. It is an
// atomic pointer load: safe from any goroutine, at any time, with no
// locking, concurrent with the writer.
func (s *Store) Snapshot() *Snapshot {
	return s.snap.Load()
}

// PublishSnapshot republishes the store's current state as the committed
// snapshot. Commit and DDL publish implicitly; this explicit form exists
// for the replay paths (crash recovery, replication followers), which
// mutate the store outside transactions and decide their own publication
// points. It must not be called during a transaction.
func (s *Store) PublishSnapshot() *Snapshot {
	if s.inTxn {
		panic("storage: PublishSnapshot during open transaction")
	}
	return s.publish()
}

// ---------------------------------------------------------------------------
// Shared read paths
//
// The Store (writer side, sees in-transaction state) and the Snapshot
// (reader side, frozen committed state) expose the same read operations
// over the same physical representation; these helpers are the single
// implementation both delegate to.
// ---------------------------------------------------------------------------

// lookupTable resolves a table name (normalizing case via the catalog)
// within the given table map.
func lookupTable(cat *catalog.Catalog, tables map[string]*tableData, name string) (*tableData, error) {
	td, ok := tables[name]
	if !ok {
		t, err := cat.Lookup(name)
		if err != nil {
			return nil, err
		}
		td, ok = tables[t.Name]
		if !ok {
			return nil, fmt.Errorf("storage: table %q has no data (internal error)", name)
		}
	}
	return td, nil
}

// findIn locates the tuple with handle h by asking each table's handle
// directory in turn: one probe per table, and a handle lives in exactly one
// table, so the map's iteration order does not matter. It is the body
// of Store.find and Snapshot.Get.
func findIn(tables map[string]*tableData, h Handle) (*Tuple, bool) {
	for _, td := range tables {
		if pos, ok := td.dir.get(h); ok {
			return td.heap.at(pos), true
		}
	}
	return nil, false
}

// scanTable runs fn over the table's rows in physical order, bumping the
// heap-scan counter.
func scanTable(td *tableData, c *accessCounters, fn func(*Tuple) bool) {
	c.heapScans.Add(1)
	td.heap.scan(fn)
}

// viewTable returns a view of the table's rows, bumping the heap-scan
// counter: a view is read as a scan is.
func viewTable(td *tableData, c *accessCounters) View {
	c.heapScans.Add(1)
	return td.heap.view()
}

// Catalog returns the snapshot's schema catalog (frozen: DDL replaces the
// catalog rather than mutating it).
func (sn *Snapshot) Catalog() *catalog.Catalog { return sn.cat }

func (sn *Snapshot) table(name string) (*tableData, error) {
	return lookupTable(sn.cat, sn.tables, name)
}

// Scan calls fn for every tuple of the named table, in the snapshot's
// physical order. A false return stops the scan.
func (sn *Snapshot) Scan(table string, fn func(*Tuple) bool) error {
	td, err := sn.table(table)
	if err != nil {
		return err
	}
	scanTable(td, sn.counters, fn)
	return nil
}

// View returns a position-indexed view of the named table in the
// snapshot, counted as one heap scan. It never changes.
func (sn *Snapshot) View(table string) (View, error) {
	td, err := sn.table(table)
	if err != nil {
		return View{}, err
	}
	return viewTable(td, sn.counters), nil
}

// Count returns the number of tuples in the named table.
func (sn *Snapshot) Count(table string) (int, error) {
	td, err := sn.table(table)
	if err != nil {
		return 0, err
	}
	return td.heap.n, nil
}

// Tuples returns the tuples of the named table sorted by handle, cloned so
// callers may mutate them freely.
func (sn *Snapshot) Tuples(table string) ([]*Tuple, error) {
	td, err := sn.table(table)
	if err != nil {
		return nil, err
	}
	return sortedTupleClones(td), nil
}

// Get returns the tuple with the given handle.
func (sn *Snapshot) Get(h Handle) (*Tuple, bool) { return findIn(sn.tables, h) }

// HasIndex reports whether a secondary index covers the given column of
// the named table.
func (sn *Snapshot) HasIndex(table string, col int) bool {
	td, err := sn.table(table)
	if err != nil {
		return false
	}
	return indexOn(td, col) != nil
}

// IndexedLookup serves an equality/IN selection from a secondary index
// (see Store.IndexedLookup for the contract).
func (sn *Snapshot) IndexedLookup(table string, col int, vals ...value.Value) ([]*Tuple, bool, error) {
	td, err := sn.table(table)
	if err != nil {
		return nil, false, err
	}
	tuples, ok := indexedLookup(td, sn.counters, col, vals...)
	return tuples, ok, nil
}

// AccessStats reports the shared atomic access-path counters (the same
// pair the owning Store reports).
func (sn *Snapshot) AccessStats() (heapScans, indexLookups int64) {
	return sn.counters.heapScans.Load(), sn.counters.indexLookups.Load()
}

// errReadOnly constructs the error the mutating half of the exec.Store
// interface returns on a snapshot.
func errReadOnly(op string) error {
	return fmt.Errorf("storage: %s on a read-only snapshot", op)
}

// Insert implements the exec.Store interface; snapshots are read-only.
func (sn *Snapshot) Insert(table string, row Row) (Handle, error) {
	return 0, errReadOnly("insert")
}

// Delete implements the exec.Store interface; snapshots are read-only.
func (sn *Snapshot) Delete(h Handle) (string, Row, error) {
	return "", nil, errReadOnly("delete")
}

// Update implements the exec.Store interface; snapshots are read-only.
func (sn *Snapshot) Update(h Handle, assign map[int]value.Value) (string, Row, error) {
	return "", nil, errReadOnly("update")
}
