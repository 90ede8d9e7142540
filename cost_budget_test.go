package sopr_test

import (
	"fmt"
	"strings"
	"testing"

	"sopr"
)

// TestCascadeCostBudget pins the work of one operation of the benchmark's
// rules-cascade workload (bench/workload.go): rebuild a 16-level
// management chain, then delete its head so that Example 4.1's
// mgr_cascade fires 17 times, beside 200 defined but never triggered
// bystander rules. Heap scans are exact. The triggering delete scans emp
// once. Each of the first 16 firings scans emp for the first action
// statement, dept once for its closed IN-subquery (evaluated once per
// statement, not once per emp row), and dept for the second statement.
// The last firing finds emp empty, so its subquery never runs: two scans.
// 1 + 16·3 + 2 = 51. The allocation budget leaves headroom over the
// measured count; a change that re-evaluates the subquery per row blows
// both pins.
func TestCascadeCostBudget(t *testing.T) {
	const depth, bystanders = 16, 200
	db := sopr.Open()
	db.MustExec(`create table emp (name varchar, emp_no int, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int);
		create table idle (x int)`)
	db.MustExec(`create rule mgr_cascade when deleted from emp
		then delete from emp where dept_no in
		     (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
		     delete from dept where mgr_no in (select emp_no from deleted emp)
		end`)
	var b strings.Builder
	for i := 0; i < bystanders; i++ {
		fmt.Fprintf(&b, "create rule idle_%d when inserted into idle then delete from idle where x = %d end;\n", i, i)
	}
	db.MustExec(b.String())

	// Department d is managed by m<d> and holds the next level's manager
	// and one more employee.
	var emps, depts strings.Builder
	emps.WriteString("insert into emp values ('m1', 1, 60000, 0)")
	depts.WriteString("insert into dept values ")
	for d := 1; d <= depth; d++ {
		if d > 1 {
			depts.WriteString(", ")
		}
		fmt.Fprintf(&depts, "(%d, %d)", d, d)
		fmt.Fprintf(&emps, ", ('m%d', %d, 60000, %d), ('e%d', %d, 30000, %d)", d+1, d+1, d, d, 1000+d, d)
	}
	rebuild := emps.String() + "; " + depts.String()
	op := func() {
		db.MustExec(rebuild)
		if res := db.MustExec(`delete from emp where emp_no = 1`); len(res.Firings) != depth+1 {
			t.Fatalf("cascade fired %d times, want %d", len(res.Firings), depth+1)
		}
	}

	op() // the first operation also sizes the tables' storage
	before := db.Stats().HeapScans
	op()
	if got := db.Stats().HeapScans - before; got != 51 {
		t.Errorf("heap scans per cascade operation = %d, want 51", got)
	}
	if allocs := testing.AllocsPerRun(5, op); allocs > 6000 {
		t.Errorf("allocations per cascade operation = %.0f, budget 6000", allocs)
	}
}
