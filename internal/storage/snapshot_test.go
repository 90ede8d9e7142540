package storage

import (
	"math/rand"
	"testing"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

// TestSnapshotIsolation pins the core MVCC contract: a snapshot taken at
// publish time is a frozen point-in-time image. Later inserts, updates,
// deletes and DDL are invisible to it, while a fresh snapshot sees them.
func TestSnapshotIsolation(t *testing.T) {
	s := newEmpStore(t)
	h1, _ := s.Insert("emp", emp("jane", 1, 100, 1))
	h2, _ := s.Insert("emp", emp("mary", 2, 90, 1))
	old := s.PublishSnapshot()

	// Mutate the store in every way after the snapshot.
	if _, _, err := s.Update(h1, map[int]value.Value{2: value.NewFloat(777)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Delete(h2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("emp", emp("newhire", 3, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("emp_dept", "emp", "dept_no"); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still shows the original two rows, original values,
	// and no index.
	if c, _ := old.Count("emp"); c != 2 {
		t.Fatalf("old snapshot Count = %d, want 2", c)
	}
	tup, ok := old.Get(h1)
	if !ok || tup.Values[2].Float() != 100 {
		t.Fatalf("old snapshot Get(h1) = %v, %v; want salary 100", tup, ok)
	}
	if _, ok := old.Get(h2); !ok {
		t.Fatal("old snapshot lost deleted-later tuple")
	}
	if old.HasIndex("emp", 3) {
		t.Fatal("old snapshot sees index created after publish")
	}

	// A fresh snapshot sees everything.
	cur := s.Snapshot()
	if c, _ := cur.Count("emp"); c != 2 {
		t.Fatalf("current snapshot Count = %d, want 2", c)
	}
	tup, ok = cur.Get(h1)
	if !ok || tup.Values[2].Float() != 777 {
		t.Fatalf("current snapshot Get(h1) = %v, want salary 777", tup)
	}
	if _, ok := cur.Get(h2); ok {
		t.Fatal("current snapshot still has deleted tuple")
	}
	if !cur.HasIndex("emp", 3) {
		t.Fatal("current snapshot missing new index")
	}
	got, used, err := cur.IndexedLookup("emp", 3, value.NewInt(2))
	if err != nil || !used || len(got) != 1 || got[0].Values[0].Str() != "newhire" {
		t.Fatalf("current snapshot IndexedLookup = %v used=%v err=%v", got, used, err)
	}
}

// TestSnapshotUnaffectedByRolledBackTxn checks that a snapshot taken
// before a transaction never observes its uncommitted effects, and that
// rollback leaves the published snapshot byte-for-byte intact.
func TestSnapshotUnaffectedByRolledBackTxn(t *testing.T) {
	s := newEmpStore(t)
	h, _ := s.Insert("emp", emp("jane", 1, 100, 1))
	old := s.PublishSnapshot()

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(h, map[int]value.Value{2: value.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("emp", emp("ghost", 9, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if tup, _ := old.Get(h); tup.Values[2].Float() != 100 {
		t.Fatal("snapshot observed uncommitted update")
	}
	if c, _ := old.Count("emp"); c != 1 {
		t.Fatal("snapshot observed uncommitted insert")
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tup, _ := s.Get(h); tup.Values[2].Float() != 100 {
		t.Fatal("rollback did not restore salary")
	}
	if c, _ := s.Count("emp"); c != 1 {
		t.Fatalf("rollback left wrong row count")
	}
}

// TestSnapshotReadOnly: the mutating half of the exec.Store interface is
// stubbed out on snapshots with explicit errors.
func TestSnapshotReadOnly(t *testing.T) {
	s := newEmpStore(t)
	h, _ := s.Insert("emp", emp("jane", 1, 100, 1))
	sn := s.PublishSnapshot()
	if _, err := sn.Insert("emp", emp("x", 2, 2, 2)); err == nil {
		t.Error("snapshot Insert succeeded")
	}
	if _, _, err := sn.Delete(h); err == nil {
		t.Error("snapshot Delete succeeded")
	}
	if _, _, err := sn.Update(h, map[int]value.Value{2: value.NewFloat(0)}); err == nil {
		t.Error("snapshot Update succeeded")
	}
	if c, _ := sn.Count("emp"); c != 1 {
		t.Fatalf("failed mutations changed snapshot: Count = %d", c)
	}
}

// TestAbsentHandleGuards is the satellite-1 regression test. The old
// storage layer looked up td.index[h] without the ok check; an absent
// handle yielded map-zero position 0 and silently removed or overwrote
// whatever tuple happened to sit there. Every path that resolves a handle
// to a position — forward ops and WAL replay — must now fail loudly and
// leave the table untouched.
func TestAbsentHandleGuards(t *testing.T) {
	s := newEmpStore(t)
	h1, _ := s.Insert("emp", emp("jane", 1, 100, 1))
	h2, _ := s.Insert("emp", emp("mary", 2, 90, 1))
	bogus := Handle(9999)

	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s of absent handle succeeded", what)
		}
		// The victim of the old bug: the tuple at position 0 must survive.
		if c, _ := s.Count("emp"); c != 2 {
			t.Fatalf("%s of absent handle changed row count to %d", what, c)
		}
		for _, h := range []Handle{h1, h2} {
			tup, ok := s.Get(h)
			if !ok {
				t.Fatalf("%s of absent handle removed live handle %d", what, h)
			}
			if tup.Values[2].Float() != 100 && tup.Values[2].Float() != 90 {
				t.Fatalf("%s of absent handle corrupted values: %v", what, tup.Values)
			}
		}
	}

	// Direct primitives (the layer every path funnels through).
	td := s.tables["emp"]
	_, err := s.applyRemove(td, bogus)
	check("applyRemove", err)
	check("applySet", s.applySet(td, bogus, emp("evil", 0, 0, 0)))

	// Forward operations.
	_, _, err = s.Delete(bogus)
	check("Delete", err)
	_, _, err = s.Update(bogus, map[int]value.Value{2: value.NewFloat(0)})
	check("Update", err)

	// WAL replay path.
	check("ReplayDelete", s.ReplayDelete(bogus))
	check("ReplaySet", s.ReplaySet(bogus, emp("evil", 0, 0, 0)))
}

// TestHandleDirectoryProperty: after any randomized sequence of inserts,
// updates, deletes, transactions (committed and rolled back) and publishes,
// every table's handle directory agrees exactly with its heap, and Get
// finds exactly the handles a full scan of every table finds — including
// after a rollback has reinstated the versions Begin froze.
func TestHandleDirectoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50fd))
	s := New()
	for _, name := range []string{"t1", "t2", "t3"} {
		tab, err := catalog.NewTable(name, []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindString},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	tables := []string{"t1", "t2", "t3"}
	var live []Handle

	row := func() Row {
		return Row{value.NewInt(rng.Int63n(100)), value.NewString("v")}
	}
	removeLive := func(h Handle) {
		for i, l := range live {
			if l == h {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			h, err := s.Insert(tables[rng.Intn(len(tables))], row())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, h)
		case op < 6 && len(live) > 0: // delete
			h := live[rng.Intn(len(live))]
			if _, _, err := s.Delete(h); err != nil {
				t.Fatal(err)
			}
			removeLive(h)
		case op < 8 && len(live) > 0: // update
			h := live[rng.Intn(len(live))]
			if _, _, err := s.Update(h, map[int]value.Value{0: value.NewInt(rng.Int63n(100))}); err != nil {
				t.Fatal(err)
			}
		case op == 8: // a small transaction, committed or rolled back
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Insert(tables[rng.Intn(len(tables))], row()); err != nil {
					t.Fatal(err)
				}
			}
			if len(live) > 0 {
				if _, _, err := s.Delete(live[rng.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if rng.Intn(2) == 0 {
				err = s.Commit()
			} else {
				err = s.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}
			// The victim list above only picks targets; rebuild the live
			// set from ground truth — the invariants below re-derive it
			// from scans anyway.
			live = scanAllHandles(s, tables)
		default: // occasionally publish, so COW paths get exercised
			s.PublishSnapshot()
		}

		// Invariant 1: the directory's own bidirectional audit.
		if err := s.CheckHandleIndex(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Invariant 2: find agrees with a full scan for live and dead
		// handles alike.
		truth := map[Handle]string{}
		for _, name := range tables {
			s.Scan(name, func(tup *Tuple) bool {
				truth[tup.Handle] = tup.Table
				return true
			})
		}
		for h := Handle(1); h <= s.next; h++ {
			tup, ok := s.Get(h)
			wantTable, wantOK := truth[h]
			if ok != wantOK {
				t.Fatalf("step %d: Get(%d) ok=%v, scan says %v", step, h, ok, wantOK)
			}
			if ok && tup.Table != wantTable {
				t.Fatalf("step %d: Get(%d) table %q, scan says %q", step, h, tup.Table, wantTable)
			}
		}
	}
}

func scanAllHandles(s *Store, tables []string) []Handle {
	var hs []Handle
	for _, name := range tables {
		s.Scan(name, func(tup *Tuple) bool {
			hs = append(hs, tup.Handle)
			return true
		})
	}
	return hs
}

// TestTuplesReturnsClones is the satellite-3 regression test: Tuples (on
// the store and on snapshots) must hand out deep copies. The old code
// returned live *Tuple pointers, so a caller scribbling on Values mutated
// committed state behind the engine's back.
func TestTuplesReturnsClones(t *testing.T) {
	s := newEmpStore(t)
	h, _ := s.Insert("emp", emp("jane", 1, 100, 1))

	tups, err := s.Tuples("emp")
	if err != nil || len(tups) != 1 {
		t.Fatalf("Tuples = %v, %v", tups, err)
	}
	tups[0].Values[0] = value.NewString("scribbled")
	tups[0].Values[2] = value.NewFloat(-1)

	if tup, _ := s.Get(h); tup.Values[0].Str() != "jane" || tup.Values[2].Float() != 100 {
		t.Fatalf("mutating Tuples result changed stored state: %v", tup.Values)
	}

	sn := s.PublishSnapshot()
	stups, err := sn.Tuples("emp")
	if err != nil || len(stups) != 1 {
		t.Fatalf("snapshot Tuples = %v, %v", stups, err)
	}
	stups[0].Values[0] = value.NewString("scribbled-again")
	if tup, _ := sn.Get(h); tup.Values[0].Str() != "jane" {
		t.Fatalf("mutating snapshot Tuples result changed snapshot state: %v", tup.Values)
	}
	if tup, _ := s.Get(h); tup.Values[0].Str() != "jane" {
		t.Fatalf("mutating snapshot Tuples result changed store state: %v", tup.Values)
	}
}

// TestSnapshotSharesAccessCounters: snapshots feed the same atomic
// access-path counters as the store, so Stats over a snapshot read path
// still counts scans and index lookups.
func TestSnapshotSharesAccessCounters(t *testing.T) {
	s := newEmpStore(t)
	s.Insert("emp", emp("jane", 1, 100, 1))
	sn := s.PublishSnapshot()
	h0, _ := s.AccessStats()
	sn.Scan("emp", func(*Tuple) bool { return true })
	h1, _ := s.AccessStats()
	if h1 != h0+1 {
		t.Fatalf("snapshot scan not counted: %d -> %d", h0, h1)
	}
}

// TestPublishSnapshotInTxnPanics: publishing mid-transaction would leak
// uncommitted state into the lock-free read path.
func TestPublishSnapshotInTxnPanics(t *testing.T) {
	s := newEmpStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PublishSnapshot inside a transaction did not panic")
		}
	}()
	s.PublishSnapshot()
}
