package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

// newAcctStore returns a store holding acct(id, branch, bal) with n rows,
// an index on id and bal = 1000 + id%100, published.
func newAcctStore(t *testing.T, n int) *Store {
	t.Helper()
	s := New()
	tab, err := catalog.NewTable("acct", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "branch", Type: value.KindInt},
		{Name: "bal", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("acct_id", "acct", "id"); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		row := Row{value.NewInt(int64(id)), value.NewInt(int64(id % 50)), value.NewInt(int64(1000 + id%100))}
		if _, err := s.Insert("acct", row); err != nil {
			t.Fatal(err)
		}
	}
	s.PublishSnapshot()
	return s
}

// TestSnapshotUpdateCopiesOneChunk pins the copying cost of a one-row
// update after a publish: one chunk's slots, the spine, and one path of
// the statistics trie of the one column whose key changed. It does not
// grow with the table beyond the spine's ceil(n/chunkSize) entries. A
// second update before the next publish that touches the same keys (it
// moves the balance back) copies nothing.
func TestSnapshotUpdateCopiesOneChunk(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := newAcctStore(t, n)
			before := s.Snapshot()
			h := Handle(n/2 + 1)
			bump := func(delta int64) {
				t.Helper()
				tup, ok := s.Get(h)
				if !ok {
					t.Fatalf("handle %d not live", h)
				}
				bal := value.NewInt(tup.Values[2].Int() + delta)
				if _, _, err := s.Update(h, map[int]value.Value{2: bal}); err != nil {
					t.Fatal(err)
				}
			}

			start := s.CopiedCells()
			bump(3)
			copied := s.CopiedCells() - start
			// bal's statistics trie holds 100 keys in two levels: the
			// root and the flat children of the old and the new key.
			statsPath := trieFan + 2*leafWidth
			budget := int64(chunkSize + (n+chunkMask)/chunkSize + statsPath)
			t.Logf("n=%d: one update copied %d cells (budget %d)", n, copied, budget)
			if copied > budget {
				t.Errorf("one update copied %d cells, budget %d", copied, budget)
			}
			if tup, _ := before.Get(h); tup.Values[2].Int() != int64(1000+(n/2)%100) {
				t.Errorf("published snapshot saw the update: %v", tup.Values)
			}
			start = s.CopiedCells()
			bump(-3)
			if again := s.CopiedCells() - start; again != 0 {
				t.Errorf("second update before a publish copied %d cells, want 0", again)
			}
			if err := s.CheckHandleIndex(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCopiedCellsSweep pins what one update, one insert and one delete
// copy after a publish at 10^3, 10^4 and 10^5 rows. Beyond the heap spine's
// ceil(n/chunkSize) entries, a write copies its heap chunks and one
// root-to-leaf path of each trie it changes, never a whole directory,
// index or statistic. The update changes only bal, whose statistics trie
// holds 100 keys at every size, so its copies beyond the spine are the
// same at every size. An insert or a delete also writes the handle
// directory, the index on id and id's statistics, tries of n keys, whose
// paths gain about one 32-slot level each time the table grows 32-fold;
// they stay within a budget of fixed paths.
func TestCopiedCellsSweep(t *testing.T) {
	// pathCells bounds one path of a trie over at most 10^5 keys: three
	// bitmap levels and a flat leaf.
	const pathCells = 3*trieFan + leafWidth
	ops := []struct {
		name           string
		chunks, paths  int // heap chunks and trie paths the write may copy
		write          func(s *Store, n int) error
		sameAtEachSize bool
	}{
		// One chunk; bal's statistics lose the old key and gain the new.
		{"update", 1, 2, func(s *Store, n int) error {
			_, _, err := s.Update(Handle(n/2+1), map[int]value.Value{2: value.NewInt(5)})
			return err
		}, true},
		// The last chunk; the directory, the index and three statistics.
		{"insert", 1, 5, func(s *Store, n int) error {
			_, err := s.Insert("acct", Row{value.NewInt(int64(n)), value.NewInt(3), value.NewInt(1000)})
			return err
		}, false},
		// The hole's chunk and the last chunk; the directory twice (the
		// moved row and the removed one), the index and three statistics.
		{"delete", 2, 6, func(s *Store, n int) error {
			_, _, err := s.Delete(Handle(n / 3))
			return err
		}, false},
	}
	sizes := []int{1000, 10000, 100000}
	stores := make([]*Store, len(sizes))
	for i, n := range sizes {
		stores[i] = newAcctStore(t, n)
	}
	for _, op := range ops {
		budget := int64(op.chunks*chunkSize + op.paths*pathCells)
		var first int64
		for i, n := range sizes {
			s := stores[i]
			s.PublishSnapshot()
			rows, _ := s.Count("acct")
			spine := int64((rows + chunkMask) / chunkSize)
			start := s.CopiedCells()
			if err := op.write(s, n); err != nil {
				t.Fatal(err)
			}
			extra := s.CopiedCells() - start - spine
			t.Logf("%s at n=%d: %d cells beyond the spine's %d (budget %d)", op.name, n, extra, spine, budget)
			if extra > budget {
				t.Errorf("%s at n=%d copied %d cells beyond the spine, budget %d", op.name, n, extra, budget)
			}
			if i == 0 {
				first = extra
			} else if op.sameAtEachSize && extra != first {
				t.Errorf("%s at n=%d copied %d cells beyond the spine, %d at n=%d", op.name, n, extra, first, sizes[0])
			}
			if err := s.CheckHandleIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotChunkCopyOnWriteProperty runs random inserts, deletes,
// updates, committed and rolled-back transactions and publishes on tables
// whose sizes sit at and around chunk boundaries. Every snapshot must keep
// scanning to the exact sequence recorded when it was published, however
// the writer's chunks, spine, directory, indexes and statistics change
// afterwards, and the store's own invariants must hold after every step.
func TestSnapshotChunkCopyOnWriteProperty(t *testing.T) {
	for _, size := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 7} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			chunkCOWProperty(t, size, rand.New(rand.NewSource(int64(size)+0xc0c)))
		})
	}
}

func chunkCOWProperty(t *testing.T, size int, rng *rand.Rand) {
	s := New()
	tab, err := catalog.NewTable("t", []catalog.Column{
		{Name: "k", Type: value.KindInt},
		{Name: "v", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t_v", "t", "v"); err != nil {
		t.Fatal(err)
	}
	row := func() Row {
		v := value.NewInt(rng.Int63n(20))
		if rng.Intn(8) == 0 {
			v = value.Null
		}
		return Row{value.NewInt(rng.Int63n(1000)), v}
	}
	for i := 0; i < size; i++ {
		if _, err := s.Insert("t", row()); err != nil {
			t.Fatal(err)
		}
	}

	type published struct {
		snap *Snapshot
		rows []Tuple
	}
	var pubs []published
	record := func(sn *Snapshot) {
		var rows []Tuple
		sn.Scan("t", func(tup *Tuple) bool {
			rows = append(rows, Tuple{Handle: tup.Handle, Values: tup.Values.Clone()})
			return true
		})
		pubs = append(pubs, published{sn, rows})
	}
	record(s.PublishSnapshot())

	live := func() []Handle {
		var hs []Handle
		s.Scan("t", func(tup *Tuple) bool {
			hs = append(hs, tup.Handle)
			return true
		})
		return hs
	}
	// mutate applies one random insert, delete or update.
	mutate := func() {
		hs := live()
		switch op := rng.Intn(3); {
		case op == 0 || len(hs) == 0:
			if _, err := s.Insert("t", row()); err != nil {
				t.Fatal(err)
			}
		case op == 1:
			if _, _, err := s.Delete(hs[rng.Intn(len(hs))]); err != nil {
				t.Fatal(err)
			}
		default:
			assign := map[int]value.Value{}
			r := row()
			for col := 0; col < 2; col++ {
				if rng.Intn(2) == 0 {
					assign[col] = r[col]
				}
			}
			if _, _, err := s.Update(hs[rng.Intn(len(hs))], assign); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 0; step < 120; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			mutate()
		case op < 8: // a transaction, committed or rolled back
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			for i := rng.Intn(6); i >= 0; i-- {
				mutate()
			}
			if rng.Intn(2) == 0 {
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				record(s.Snapshot())
			} else if err := s.Rollback(); err != nil {
				t.Fatal(err)
			}
		default:
			record(s.PublishSnapshot())
		}

		for _, check := range []func() error{s.CheckHandleIndex, s.CheckIndexes, s.CheckStats} {
			if err := check(); err != nil {
				t.Fatalf("size %d, step %d: %v", size, step, err)
			}
		}
		for i, p := range pubs {
			j := 0
			p.snap.Scan("t", func(tup *Tuple) bool {
				if j >= len(p.rows) || tup.Handle != p.rows[j].Handle || !tup.Values.Equal(p.rows[j].Values) {
					t.Fatalf("size %d, step %d: snapshot %d changed at position %d", size, step, i, j)
				}
				j++
				return true
			})
			if n, _ := p.snap.Count("t"); j != len(p.rows) || n != len(p.rows) {
				t.Fatalf("size %d, step %d: snapshot %d scans %d rows, counts %d, recorded %d", size, step, i, j, n, len(p.rows))
			}
		}
	}
}

// TestCheckHandleIndexSeesPositions corrupts one heap slot or directory
// entry at a time and requires CheckHandleIndex to report each: a chunk
// write to the wrong slot must not go unnoticed.
func TestCheckHandleIndexSeesPositions(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(s *Store, td *tableData)
	}{
		{"swapped slots", func(s *Store, td *tableData) {
			a, b := td.heap.at(3), td.heap.at(chunkSize+3)
			td.heap.set(&s.cow, 3, b)
			td.heap.set(&s.cow, chunkSize+3, a)
		}},
		{"duplicated slot", func(s *Store, td *tableData) {
			td.heap.set(&s.cow, chunkSize, td.heap.at(chunkSize+1))
		}},
		{"emptied slot", func(s *Store, td *tableData) { td.heap.set(&s.cow, 7, nil) }},
		{"slot beyond the rows", func(s *Store, td *tableData) {
			td.heap.set(&s.cow, td.heap.n, td.heap.at(0))
		}},
		{"stale directory entry", func(s *Store, td *tableData) {
			td.dir.put(&s.cow, td.heap.at(1).Handle, 2)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newAcctStore(t, 2*chunkSize+10)
			if err := s.CheckHandleIndex(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(s, s.writable(s.tables["acct"]))
			if err := s.CheckHandleIndex(); err == nil {
				t.Fatal("CheckHandleIndex passed a corrupted heap")
			} else {
				t.Log(err)
			}
		})
	}
}
