package exec

import (
	"math"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// TestNaNIndexDivergenceRepro pins down that a stored NaN (reachable via
// float overflow arithmetic) selects identically under the heap-scan and
// secondary-index access paths.
func TestNaNIndexDivergenceRepro(t *testing.T) {
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, "create table t (f float)")
	// Inf - Inf stores NaN.
	mustOp(t, e, "insert into t values (1e308 * 10 - 1e308 * 10)")
	mustOp(t, e, "insert into t values (5.0)")

	cmp, ok := value.Compare(value.NewFloat(math.NaN()), value.NewFloat(5.0))
	t.Logf("Compare(NaN,5.0) = %d %v", cmp, ok)

	query := func(src string) *Result {
		t.Helper()
		st, err := sqlparse.ParseStatement(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := e.Query(st.(*sqlast.Select))
		if err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
		return res
	}

	q := "select f from t where f = 5.0"
	e.Naive = true
	scan := query(q)
	e.Naive = false
	if err := e.Store.(*storage.Store).CreateIndex("ixf", "t", "f"); err != nil {
		t.Fatalf("create index: %v", err)
	}
	idx := query(q)
	t.Logf("scan rows=%d indexed rows=%d", len(scan.Rows), len(idx.Rows))
	if len(scan.Rows) != len(idx.Rows) {
		t.Fatalf("DIVERGENCE: scan=%d indexed=%d", len(scan.Rows), len(idx.Rows))
	}
}
