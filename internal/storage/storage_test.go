package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"sopr/internal/catalog"
	"sopr/internal/value"
)

func newEmpStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	tab, err := catalog.NewTable("emp", []catalog.Column{
		{Name: "name", Type: value.KindString},
		{Name: "emp_no", Type: value.KindInt, NotNull: true},
		{Name: "salary", Type: value.KindFloat},
		{Name: "dept_no", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	return s
}

func emp(name string, no int64, sal float64, dept int64) Row {
	return Row{value.NewString(name), value.NewInt(no), value.NewFloat(sal), value.NewInt(dept)}
}

func TestInsertGetScan(t *testing.T) {
	s := newEmpStore(t)
	h1, err := s.Insert("emp", emp("jane", 1, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Insert("emp", emp("mary", 2, 90, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 || h1 == 0 {
		t.Fatalf("handles not distinct/nonzero: %d %d", h1, h2)
	}
	tup, ok := s.Get(h1)
	if !ok || tup.Table != "emp" || tup.Values[0].Str() != "jane" {
		t.Fatalf("Get(%d) = %v, %v", h1, tup, ok)
	}
	n := 0
	if err := s.Scan("emp", func(*Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("scan saw %d tuples, want 2", n)
	}
	if c, _ := s.Count("emp"); c != 2 {
		t.Errorf("Count = %d", c)
	}
	// Early-stop scan.
	n = 0
	s.Scan("emp", func(*Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop scan saw %d", n)
	}
}

func TestDuplicateTuplesAllowed(t *testing.T) {
	s := newEmpStore(t)
	r := emp("dup", 1, 50, 2)
	h1, _ := s.Insert("emp", r)
	h2, _ := s.Insert("emp", r)
	if h1 == h2 {
		t.Fatal("duplicate tuples must get distinct handles")
	}
	if c, _ := s.Count("emp"); c != 2 {
		t.Errorf("Count = %d, want 2 (duplicates preserved)", c)
	}
}

func TestDeleteAndHandleNonReuse(t *testing.T) {
	s := newEmpStore(t)
	h1, _ := s.Insert("emp", emp("a", 1, 1, 1))
	table, old, err := s.Delete(h1)
	if err != nil || table != "emp" || old[0].Str() != "a" {
		t.Fatalf("Delete: %v %v %v", table, old, err)
	}
	if _, ok := s.Get(h1); ok {
		t.Error("deleted tuple still visible")
	}
	if _, _, err := s.Delete(h1); err == nil {
		t.Error("double delete accepted")
	}
	h2, _ := s.Insert("emp", emp("b", 2, 2, 2))
	if h2 <= h1 {
		t.Errorf("handle reused or non-monotonic: %d after %d", h2, h1)
	}
}

func TestUpdate(t *testing.T) {
	s := newEmpStore(t)
	h, _ := s.Insert("emp", emp("a", 1, 100, 1))
	table, old, err := s.Update(h, map[int]value.Value{2: value.NewFloat(120)})
	if err != nil || table != "emp" {
		t.Fatalf("Update: %v", err)
	}
	if old[2].Float() != 100 {
		t.Errorf("old salary = %v, want 100", old[2])
	}
	tup, _ := s.Get(h)
	if tup.Values[2].Float() != 120 {
		t.Errorf("new salary = %v, want 120", tup.Values[2])
	}
	// Old row must be an independent snapshot.
	if &old[0] == &tup.Values[0] {
		t.Error("old row aliases live row")
	}
	// Int column accepts integral float via coercion.
	if _, _, err := s.Update(h, map[int]value.Value{3: value.NewFloat(2.0)}); err != nil {
		t.Errorf("integral float into int column: %v", err)
	}
	if _, _, err := s.Update(h, map[int]value.Value{3: value.NewFloat(2.5)}); err == nil {
		t.Error("non-integral float into int column accepted")
	}
	if _, _, err := s.Update(h, map[int]value.Value{1: value.Null}); err == nil {
		t.Error("NULL into NOT NULL column accepted")
	}
	if _, _, err := s.Update(h, map[int]value.Value{99: value.NewInt(1)}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, _, err := s.Update(999, nil); err == nil {
		t.Error("update of unknown handle accepted")
	}
}

func TestSchemaValidationOnInsert(t *testing.T) {
	s := newEmpStore(t)
	if _, err := s.Insert("emp", Row{value.NewString("x")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := s.Insert("emp", emp("x", 1, 1, 1)[:3]); err == nil {
		t.Error("short row accepted")
	}
	bad := emp("x", 1, 1, 1)
	bad[1] = value.Null
	if _, err := s.Insert("emp", bad); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	bad2 := emp("x", 1, 1, 1)
	bad2[2] = value.NewString("lots")
	if _, err := s.Insert("emp", bad2); err == nil {
		t.Error("string into float column accepted")
	}
	// int → float coercion on insert
	r := emp("x", 1, 1, 1)
	r[2] = value.NewInt(7)
	h, err := s.Insert("emp", r)
	if err != nil {
		t.Fatalf("int into float column: %v", err)
	}
	tup, _ := s.Get(h)
	if tup.Values[2].Kind() != value.KindFloat || tup.Values[2].Float() != 7 {
		t.Errorf("coerced value = %v", tup.Values[2])
	}
	if _, err := s.Insert("nosuch", emp("x", 1, 1, 1)); err == nil {
		t.Error("insert into missing table accepted")
	}
}

func TestTransactionCommit(t *testing.T) {
	s := newEmpStore(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err == nil {
		t.Error("nested Begin accepted")
	}
	s.Insert("emp", emp("a", 1, 1, 1))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Error("Commit without txn accepted")
	}
	if c, _ := s.Count("emp"); c != 1 {
		t.Errorf("after commit Count = %d", c)
	}
}

func TestRollbackRestoresState(t *testing.T) {
	s := newEmpStore(t)
	h0, _ := s.Insert("emp", emp("keep", 1, 100, 1))
	hDel, _ := s.Insert("emp", emp("victim", 2, 50, 1))

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	// Mixed workload: insert, update existing twice, delete pre-existing,
	// insert-then-delete, insert-then-update.
	s.Insert("emp", emp("new1", 3, 10, 2))
	s.Update(h0, map[int]value.Value{2: value.NewFloat(111)})
	s.Update(h0, map[int]value.Value{2: value.NewFloat(222)})
	s.Delete(hDel)
	hTmp, _ := s.Insert("emp", emp("tmp", 4, 1, 3))
	s.Delete(hTmp)
	hNew, _ := s.Insert("emp", emp("new2", 5, 20, 3))
	s.Update(hNew, map[int]value.Value{0: value.NewString("renamed")})
	nextBefore := s.NextHandle()

	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if s.InTxn() {
		t.Error("still in txn after rollback")
	}
	if c, _ := s.Count("emp"); c != 2 {
		t.Fatalf("after rollback Count = %d, want 2", c)
	}
	tup, ok := s.Get(h0)
	if !ok || tup.Values[2].Float() != 100 {
		t.Errorf("h0 not restored: %v", tup)
	}
	v, ok := s.Get(hDel)
	if !ok || v.Values[0].Str() != "victim" {
		t.Errorf("deleted tuple not restored: %v", v)
	}
	if _, ok := s.Get(hNew); ok {
		t.Error("rolled-back insert still visible")
	}
	// Handles burned inside the rolled-back txn are not reused.
	if s.NextHandle() != nextBefore {
		t.Errorf("handle counter moved on rollback: %d vs %d", s.NextHandle(), nextBefore)
	}
	h, _ := s.Insert("emp", emp("post", 6, 1, 1))
	if h < nextBefore {
		t.Errorf("handle %d reused after rollback (burned up to %d)", h, nextBefore)
	}
	if err := s.Rollback(); err == nil {
		t.Error("Rollback without txn accepted")
	}
}

func TestDDLInsideTxnRejected(t *testing.T) {
	s := newEmpStore(t)
	s.Begin()
	tab, _ := catalog.NewTable("t2", []catalog.Column{{Name: "a", Type: value.KindInt}})
	if err := s.CreateTable(tab); err == nil {
		t.Error("CREATE TABLE inside txn accepted")
	}
	if err := s.DropTable("emp"); err == nil {
		t.Error("DROP TABLE inside txn accepted")
	}
	s.Rollback()
	if err := s.CreateTable(tab); err != nil {
		t.Errorf("CREATE TABLE after txn: %v", err)
	}
	if err := s.DropTable("t2"); err != nil {
		t.Errorf("DropTable: %v", err)
	}
	if err := s.DropTable("t2"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestTuplesSortedByHandle(t *testing.T) {
	s := newEmpStore(t)
	var hs []Handle
	for i := 0; i < 10; i++ {
		h, _ := s.Insert("emp", emp("x", int64(i), 1, 1))
		hs = append(hs, h)
	}
	// Delete a middle tuple to force swap-compaction, then check ordering.
	s.Delete(hs[4])
	tups, err := s.Tuples("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(tups) != 9 {
		t.Fatalf("len = %d", len(tups))
	}
	for i := 1; i < len(tups); i++ {
		if tups[i-1].Handle >= tups[i].Handle {
			t.Fatalf("Tuples not sorted: %d then %d", tups[i-1].Handle, tups[i].Handle)
		}
	}
}

func TestClone(t *testing.T) {
	s := newEmpStore(t)
	h, _ := s.Insert("emp", emp("a", 1, 100, 1))
	c := s.Clone()
	// Mutating the clone must not affect the original and vice versa.
	c.Update(h, map[int]value.Value{2: value.NewFloat(999)})
	orig, _ := s.Get(h)
	if orig.Values[2].Float() != 100 {
		t.Error("clone mutation leaked into original")
	}
	s.Delete(h)
	if _, ok := c.Get(h); !ok {
		t.Error("original deletion leaked into clone")
	}
	// Handle counters advance independently but start equal.
	h2, _ := c.Insert("emp", emp("b", 2, 1, 1))
	if h2 <= h {
		t.Errorf("clone handle %d not beyond %d", h2, h)
	}
}

// TestCloneCopiesEveryRow: a clone holds every row of the original, in
// the same scan order, with consistent handle directories. Clone inserts
// into the version its first insert makes, not into the published one it
// started from, which would keep only the last row.
func TestCloneCopiesEveryRow(t *testing.T) {
	s := newEmpStore(t)
	for i := int64(0); i < 300; i++ {
		s.Insert("emp", emp("a", i, 100, i%7))
	}
	c := s.Clone()
	if err := c.CheckHandleIndex(); err != nil {
		t.Fatal(err)
	}
	want, got := scanAllHandles(s, []string{"emp"}), scanAllHandles(c, []string{"emp"})
	if len(got) != len(want) {
		t.Fatalf("clone holds %d rows, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone scan position %d holds handle %d, original %d", i, got[i], want[i])
		}
	}
}

func TestCloneDuringTxnPanics(t *testing.T) {
	s := newEmpStore(t)
	s.Begin()
	defer func() {
		if recover() == nil {
			t.Error("Clone during txn should panic")
		}
	}()
	s.Clone()
}

// newEmpDeptStore returns the emp store with its two indexes beside a
// second table, dept(dept_no, mgr_no), indexed on mgr_no.
func newEmpDeptStore(t *testing.T) *Store {
	t.Helper()
	s := newIndexedStore(t)
	tab, err := catalog.NewTable("dept", []catalog.Column{
		{Name: "dept_no", Type: value.KindInt},
		{Name: "mgr_no", Type: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("dept_mgr_ix", "dept", "mgr_no"); err != nil {
		t.Fatal(err)
	}
	return s
}

// scanState returns every tuple of the named tables in scan order, with
// cloned values.
func scanState(s *Store, tables ...string) []Tuple {
	var out []Tuple
	for _, name := range tables {
		s.Scan(name, func(t *Tuple) bool {
			out = append(out, Tuple{Handle: t.Handle, Table: t.Table, Values: t.Values.Clone()})
			return true
		})
	}
	return out
}

// sameTuples reports whether a and b hold the same tuples in the same order.
func sameTuples(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y Tuple) bool {
		return x.Handle == y.Handle && x.Table == y.Table && x.Values.Equal(y.Values)
	})
}

// TestRollbackProperty: after any history of transactions over two
// indexed tables, each committed or rolled back, every rollback restores
// the exact contents the store held at Begin, in the same scan order, with
// every handle directory, index and statistic consistent.
func TestRollbackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newEmpDeptStore(t)
		for i := 0; i < 8; i++ {
			s.Insert("emp", emp("base", int64(i), float64(i)*10, int64(i%3)))
			s.Insert("dept", Row{value.NewInt(int64(i)), value.NewInt(int64(i % 4))})
		}
		for txn := 0; txn < 6; txn++ {
			if rng.Intn(2) == 0 {
				s.PublishSnapshot()
			}
			before := scanState(s, "emp", "dept")
			s.Begin()
			for op := rng.Intn(12); op > 0; op-- {
				live := scanState(s, "emp", "dept")
				switch k := rng.Intn(3); {
				case k == 0 || len(live) == 0:
					if rng.Intn(2) == 0 {
						s.Insert("emp", emp("tmp", rng.Int63n(20), rng.Float64(), rng.Int63n(4)))
					} else {
						s.Insert("dept", Row{value.NewInt(rng.Int63n(10)), value.NewInt(rng.Int63n(4))})
					}
				case k == 1:
					s.Delete(live[rng.Intn(len(live))].Handle)
				default:
					s.Update(live[rng.Intn(len(live))].Handle, map[int]value.Value{1: value.NewInt(rng.Int63n(20))})
				}
			}
			if rng.Intn(3) == 0 {
				s.Commit()
				continue
			}
			if err := s.Rollback(); err != nil {
				t.Fatal(err)
			}
			for _, check := range []func() error{s.CheckHandleIndex, s.CheckIndexes, s.CheckStats} {
				if err := check(); err != nil {
					t.Fatalf("seed %d, txn %d: %v", seed, txn, err)
				}
			}
			if after := scanState(s, "emp", "dept"); !sameTuples(before, after) {
				t.Logf("seed %d, txn %d: before %v, after rollback %v", seed, txn, before, after)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRollbackCopiesNothing: Rollback reinstates the versions Begin froze,
// so it allocates nothing and copies no cells, whether the transaction
// wrote one row or a thousand.
func TestRollbackCopiesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	for _, writes := range []int{1, 1000} {
		t.Run(fmt.Sprint(writes), func(t *testing.T) {
			s := newAcctStore(t, 2000)
			before := scanState(s, "acct")
			s.Begin()
			for i := 0; i < writes; i++ {
				h := Handle(1 + 2*i)
				switch i % 3 {
				case 0:
					s.Update(h, map[int]value.Value{2: value.NewInt(int64(i))})
				case 1:
					s.Delete(h)
				default:
					s.Insert("acct", Row{value.NewInt(int64(i)), value.NewInt(1), value.NewInt(1)})
				}
			}
			cells := s.CopiedCells()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := s.Rollback()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n := m1.Mallocs - m0.Mallocs; n != 0 {
				t.Errorf("rollback after %d writes allocated %d times, want 0", writes, n)
			}
			if n := s.CopiedCells() - cells; n != 0 {
				t.Errorf("rollback after %d writes copied %d cells, want 0", writes, n)
			}
			if !sameTuples(before, scanState(s, "acct")) {
				t.Errorf("rollback after %d writes did not restore the table", writes)
			}
		})
	}
}

func TestCatalogAccessorAndCaseLookups(t *testing.T) {
	s := newEmpStore(t)
	if !s.Catalog().Has("emp") {
		t.Error("Catalog accessor")
	}
	// Case-variant table names route through the catalog fallback.
	if _, err := s.Insert("EMP", emp("a", 1, 1, 1)); err != nil {
		t.Errorf("case-variant insert: %v", err)
	}
	if n, err := s.Count("Emp"); err != nil || n != 1 {
		t.Errorf("case-variant count: %d, %v", n, err)
	}
	if err := s.Scan("eMp", func(*Tuple) bool { return true }); err != nil {
		t.Errorf("case-variant scan: %v", err)
	}
	if _, err := s.Count("nosuch"); err == nil {
		t.Error("count of missing table accepted")
	}
	if _, err := s.Tuples("nosuch"); err == nil {
		t.Error("tuples of missing table accepted")
	}
	// Duplicate CreateTable rejected.
	tab, _ := catalog.NewTable("emp", []catalog.Column{{Name: "a", Type: value.KindInt}})
	if err := s.CreateTable(tab); err == nil {
		t.Error("duplicate CreateTable accepted")
	}
}

func TestRowHelpers(t *testing.T) {
	r := emp("a", 1, 2, 3)
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c[0] = value.NewString("b")
	if r.Equal(c) {
		t.Error("Equal ignored difference")
	}
	if r.Equal(c[:2]) {
		t.Error("Equal ignored length")
	}
	if got := (Row{value.NewInt(1), value.Null}).String(); got != "(1, NULL)" {
		t.Errorf("Row.String = %q", got)
	}
}
