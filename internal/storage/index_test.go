package storage

import (
	"math/rand"
	"slices"
	"testing"

	"sopr/internal/value"
)

func newIndexedStore(t *testing.T) *Store {
	t.Helper()
	s := newEmpStore(t)
	if err := s.CreateIndex("emp_no_ix", "emp", "emp_no"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("emp_dept_ix", "emp", "dept_no"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateIndexMetadata(t *testing.T) {
	s := newIndexedStore(t)
	if !s.HasIndex("emp", 1) || !s.HasIndex("emp", 3) {
		t.Error("expected indexes on emp_no and dept_no")
	}
	if s.HasIndex("emp", 0) || s.HasIndex("emp", 2) {
		t.Error("unexpected index on name/salary")
	}
	// Duplicate name, unknown table, unknown column all fail.
	if err := s.CreateIndex("emp_no_ix", "emp", "salary"); err == nil {
		t.Error("duplicate index name accepted")
	}
	if err := s.CreateIndex("x", "nosuch", "a"); err == nil {
		t.Error("unknown table accepted")
	}
	if err := s.CreateIndex("x", "emp", "nosuch"); err == nil {
		t.Error("unknown column accepted")
	}
	// DDL is rejected inside a transaction, like CREATE TABLE.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("txn_ix", "emp", "salary"); err == nil {
		t.Error("CREATE INDEX inside transaction accepted")
	}
	if err := s.DropIndex("emp_no_ix"); err == nil {
		t.Error("DROP INDEX inside transaction accepted")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropIndex("emp_no_ix"); err != nil {
		t.Fatal(err)
	}
	if s.HasIndex("emp", 1) {
		t.Error("index survived DropIndex")
	}
	if err := s.DropIndex("emp_no_ix"); err == nil {
		t.Error("double DROP INDEX accepted")
	}
	// Dropping the table drops its indexes with it.
	if err := s.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Catalog().Index("emp_dept_ix"); err == nil {
		t.Error("index survived DropTable")
	}
}

// TestIndexedLookupOrder: results come back in physical heap-scan order
// even with duplicate keys and multi-value probes, so the indexed access
// path is order-identical to a scan.
func TestIndexedLookupOrder(t *testing.T) {
	s := newIndexedStore(t)
	for i := 0; i < 20; i++ {
		if _, err := s.Insert("emp", emp("e", int64(i), 0, int64(i%3))); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	if err := s.Scan("emp", func(tu *Tuple) bool {
		d := tu.Values[3].Int()
		if d == 0 || d == 2 {
			want = append(want, tu.Values[1].String())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.IndexedLookup("emp", 3, value.NewInt(0), value.NewInt(2))
	if err != nil || !ok {
		t.Fatalf("IndexedLookup: ok=%v err=%v", ok, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i, tu := range got {
		if tu.Values[1].String() != want[i] {
			t.Fatalf("position %d: got emp_no %s, want %s", i, tu.Values[1], want[i])
		}
	}
	// Lookup on an unindexed column declines.
	if _, ok, _ := s.IndexedLookup("emp", 2, value.NewFloat(0)); ok {
		t.Error("lookup on unindexed column did not decline")
	}
	// NULL probes identify no rows (WHERE col = NULL is never true).
	if tuples, ok, _ := s.IndexedLookup("emp", 3, value.Null); !ok || len(tuples) != 0 {
		t.Errorf("NULL probe: ok=%v n=%d, want hit with 0 rows", ok, len(tuples))
	}
}

// TestIndexMaintenanceProperty: after any randomized sequence of inserts,
// updates, deletes, rollbacks and commits, every index's contents are
// identical to a from-scratch rebuild over the heap.
func TestIndexMaintenanceProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		s := newIndexedStore(t)
		var live []Handle
		randRow := func() Row {
			r := emp("e", rng.Int63n(50), float64(rng.Intn(10)), rng.Int63n(5))
			if rng.Intn(8) == 0 {
				r[3] = value.Null
			}
			return r
		}
		step := func() {
			switch {
			case len(live) == 0 || rng.Intn(3) == 0:
				h, err := s.Insert("emp", randRow())
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, h)
			case rng.Intn(2) == 0:
				h := live[rng.Intn(len(live))]
				assign := map[int]value.Value{1: value.NewInt(rng.Int63n(50))}
				if rng.Intn(2) == 0 {
					assign[3] = value.Null
				}
				if _, _, err := s.Update(h, assign); err != nil {
					t.Fatal(err)
				}
			default:
				i := rng.Intn(len(live))
				if _, _, err := s.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		for round := 0; round < 30; round++ {
			inTxn := rng.Intn(2) == 0
			var before []Handle
			if inTxn {
				before = append([]Handle(nil), live...)
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 1+rng.Intn(6); i++ {
				step()
			}
			if inTxn {
				if rng.Intn(2) == 0 {
					if err := s.Rollback(); err != nil {
						t.Fatal(err)
					}
					live = before
				} else if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.CheckIndexes(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		// Clone carries the index definitions and rebuilds the structures.
		c := s.Clone()
		if !c.HasIndex("emp", 1) || !c.HasIndex("emp", 3) {
			t.Fatal("clone lost index definitions")
		}
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("seed %d clone: %v", seed, err)
		}
		// Mutating the clone must not disturb the original's indexes.
		if _, err := c.Insert("emp", emp("c", 99, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckIndexes(); err != nil {
			t.Fatalf("seed %d original after clone mutation: %v", seed, err)
		}
	}
}

// TestSnapshotIndexesAndStatsFrozen publishes snapshots between random
// inserts, updates and deletes, committed and rolled back, and requires
// every snapshot to keep answering index lookups and column statistics
// exactly as when it was published. The dept_no index holds a few large
// buckets, so the writer's in-place bucket edits of its own generation
// must never reach a bucket a snapshot shares.
func TestSnapshotIndexesAndStatsFrozen(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := newIndexedStore(t)
		type published struct {
			snap  *Snapshot
			hits  map[[2]int64][]Handle // (column, key) -> handles in heap order
			stats []ColStats
		}
		record := func(sn *Snapshot) published {
			p := published{snap: sn, hits: map[[2]int64][]Handle{}}
			for _, col := range []int{1, 3} {
				for k := int64(0); k < 50; k++ {
					tuples, ok, err := sn.IndexedLookup("emp", col, value.NewInt(k))
					if err != nil || !ok {
						t.Fatalf("lookup emp.%d = %d: ok=%v, %v", col, k, ok, err)
					}
					for _, tup := range tuples {
						p.hits[[2]int64{int64(col), k}] = append(p.hits[[2]int64{int64(col), k}], tup.Handle)
					}
				}
			}
			for col := 0; col < 4; col++ {
				cs, err := sn.ColumnStats("emp", col)
				if err != nil {
					t.Fatal(err)
				}
				p.stats = append(p.stats, cs)
			}
			return p
		}
		var live []Handle
		var pubs []published
		for round := 0; round < 40; round++ {
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			before := append([]Handle(nil), live...)
			for i := 0; i < 1+rng.Intn(8); i++ {
				switch {
				case len(live) == 0 || rng.Intn(2) == 0:
					h, err := s.Insert("emp", emp("e", rng.Int63n(50), float64(rng.Intn(10)), rng.Int63n(5)))
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, h)
				case rng.Intn(2) == 0:
					h := live[rng.Intn(len(live))]
					if _, _, err := s.Update(h, map[int]value.Value{3: value.NewInt(rng.Int63n(5))}); err != nil {
						t.Fatal(err)
					}
				default:
					i := rng.Intn(len(live))
					if _, _, err := s.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			if rng.Intn(4) == 0 {
				if err := s.Rollback(); err != nil {
					t.Fatal(err)
				}
				live = before
			} else if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, record(s.Snapshot()))
			for i, p := range pubs {
				again := record(p.snap)
				for key, want := range p.hits {
					if got := again.hits[key]; !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d: snapshot %d lookup emp.%d = %d: %v, published %v", seed, round, i, key[0], key[1], got, want)
					}
				}
				if !slices.Equal(again.stats, p.stats) {
					t.Fatalf("seed %d round %d: snapshot %d stats %v, published %v", seed, round, i, again.stats, p.stats)
				}
			}
		}
	}
}

// probeKey is where cross-kind equality semantics concentrate: a float
// probe against an int column must hit exactly the rows a scan's
// value.Compare would keep.
func TestProbeKeySemantics(t *testing.T) {
	intKey := func(i int64) value.Key {
		k, ok := value.KeyExact(value.NewInt(i))
		if !ok {
			t.Fatalf("KeyExact(%d) failed", i)
		}
		return k
	}
	// Integral float within exact range converts to the int key.
	k, out := probeKey(value.NewFloat(7), value.KindInt)
	if out != probeHit || k != intKey(7) {
		t.Errorf("float 7 vs int column: out=%v key=%v", out, k)
	}
	// Non-integral float can never equal an int: provably empty.
	if _, out := probeKey(value.NewFloat(7.5), value.KindInt); out != probeEmpty {
		t.Errorf("float 7.5 vs int column: out=%v, want empty", out)
	}
	// Huge floats are ambiguous under Compare's float64 image: fall back.
	if _, out := probeKey(value.NewFloat(1<<60), value.KindInt); out != probeScan {
		t.Errorf("float 2^60 vs int column: out=%v, want scan", out)
	}
	// NULL identifies nothing.
	if _, out := probeKey(value.Null, value.KindInt); out != probeEmpty {
		t.Errorf("null probe: out=%v, want empty", out)
	}
	// Int probe against a float column goes through the float image.
	kf, out := probeKey(value.NewInt(3), value.KindFloat)
	want, _ := value.KeyExact(value.NewFloat(3))
	if out != probeHit || kf != want {
		t.Errorf("int 3 vs float column: out=%v key=%v", out, kf)
	}
	// Cross-kind non-numeric comparisons never match stored keys.
	if _, out := probeKey(value.NewString("x"), value.KindInt); out != probeEmpty {
		t.Errorf("string vs int column: out=%v, want empty", out)
	}
}
