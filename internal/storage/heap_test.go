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
// update after a publish: one chunk's slots, the spine, and the
// statistics of the one column whose key changed. It does not grow with
// the table beyond the spine's ceil(n/chunkSize) entries. A second update
// before the next publish copies nothing.
func TestSnapshotUpdateCopiesOneChunk(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := newAcctStore(t, n)
			before := s.Snapshot()
			balStats, err := s.ColumnStats("acct", 2)
			if err != nil {
				t.Fatal(err)
			}
			h := Handle(n/2 + 1)
			bump := func() {
				t.Helper()
				tup, ok := s.Get(h)
				if !ok {
					t.Fatalf("handle %d not live", h)
				}
				bal := value.NewInt(tup.Values[2].Int() + 3)
				if _, _, err := s.Update(h, map[int]value.Value{2: bal}); err != nil {
					t.Fatal(err)
				}
			}

			start := s.CopiedCells()
			bump()
			copied := s.CopiedCells() - start
			budget := int64(chunkSize + (n+chunkMask)/chunkSize + balStats.Distinct)
			t.Logf("n=%d: one update copied %d cells (budget %d)", n, copied, budget)
			if copied > budget {
				t.Errorf("one update copied %d cells, budget %d", copied, budget)
			}
			start = s.CopiedCells()
			bump()
			if again := s.CopiedCells() - start; again != 0 {
				t.Errorf("second update before a publish copied %d cells, want 0", again)
			}
			if tup, _ := before.Get(h); tup.Values[2].Int() != int64(1000+(n/2)%100) {
				t.Errorf("published snapshot saw the update: %v", tup.Values)
			}
			if err := s.CheckHandleIndex(); err != nil {
				t.Fatal(err)
			}
		})
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
			td.ownDir(&s.cow)
			td.dir[td.heap.at(1).Handle] = 2
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
