package storage

import (
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

// Property: a random batch of inserts inside a transaction followed by
// rollback always restores the exact prior table contents.
func TestRollbackProperty(t *testing.T) {
	f := func(salaries []float64, deleteMask []bool) bool {
		s := newEmpStore(t)
		var base []Handle
		for i := 0; i < 5; i++ {
			h, _ := s.Insert("emp", emp("base", int64(i), float64(i)*10, 1))
			base = append(base, h)
		}
		before := snapshot(s)
		s.Begin()
		for i, sal := range salaries {
			s.Insert("emp", emp("tmp", int64(100+i), sal, 2))
		}
		for i, del := range deleteMask {
			if del && i < len(base) {
				s.Delete(base[i])
			} else if i < len(base) {
				s.Update(base[i], map[int]value.Value{2: value.NewFloat(-1)})
			}
		}
		s.Rollback()
		return snapshotEqual(before, snapshot(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func snapshot(s *Store) map[Handle]Row {
	m := make(map[Handle]Row)
	s.Scan("emp", func(t *Tuple) bool {
		m[t.Handle] = t.Values.Clone()
		return true
	})
	return m
}

func snapshotEqual(a, b map[Handle]Row) bool {
	if len(a) != len(b) {
		return false
	}
	for h, r := range a {
		if !r.Equal(b[h]) {
			return false
		}
	}
	return true
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
