package sopr_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sopr"
)

// cascadeSetup returns the definition scripts of the benchmark's
// rules-cascade workload (bench/workload.go): Example 4.1's mgr_cascade
// beside the given number of bystander rules, which watch a table the
// workload never touches.
func cascadeSetup(bystanders int) []string {
	var b strings.Builder
	for i := 0; i < bystanders; i++ {
		fmt.Fprintf(&b, "create rule idle_%d when inserted into idle then delete from idle where x = %d end;\n", i, i)
	}
	return []string{
		`create table emp (name varchar, emp_no int, salary float, dept_no int);
		 create table dept (dept_no int, mgr_no int);
		 create table idle (x int)`,
		`create rule mgr_cascade when deleted from emp
		 then delete from emp where dept_no in
		      (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
		      delete from dept where mgr_no in (select emp_no from deleted emp)
		 end`,
		b.String(),
	}
}

// cascadeOp defines the rules-cascade schema and returns one operation of
// the workload: rebuild a 16-level management chain, then delete its head
// so that mgr_cascade fires 17 times.
func cascadeOp(t *testing.T, db *sopr.DB, bystanders int) func() {
	const depth = 16
	for _, src := range cascadeSetup(bystanders) {
		db.MustExec(src)
	}
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
	return func() {
		db.MustExec(rebuild)
		if res := db.MustExec(`delete from emp where emp_no = 1`); len(res.Firings) != depth+1 {
			t.Fatalf("cascade fired %d times, want %d", len(res.Firings), depth+1)
		}
	}
}

// TestCascadeCostBudget pins the work of one rules-cascade operation
// (cascadeOp) beside 0 and beside 200 bystander rules. Both runs must cost
// exactly the same heap scans and rule visits.
//
// Heap scans: the triggering delete scans emp once. Each of the first 16
// firings scans emp for the first action statement, dept once for its
// closed IN-subquery (evaluated once per statement, not once per emp row),
// and dept for the second statement. The last firing finds emp empty, so
// its subquery never runs: two scans. 1 + 16·3 + 2 = 51.
//
// Rule visits: only mgr_cascade watches emp or dept; the bystanders watch
// idle, which the operation never touches. The rebuild composes into
// mgr_cascade's trans-info and tests its trigger: 2. The delete does the
// same: 2. Each of the 17 firings re-initializes mgr_cascade's trans-info
// and then tests it again: 17·2. 2 + 2 + 34 = 38.
//
// The allocation budget is the measured count (2,151 either way, with
// mgr_cascade's condition and action bound once and reused by every
// firing; 2,634 when they were interpreted from the syntax tree) plus
// 5 %; visiting every bystander on every transition, re-evaluating the
// subquery per row, or binding the rule's statements at each firing
// blows the pins.
func TestCascadeCostBudget(t *testing.T) {
	for _, bystanders := range []int{0, 200} {
		t.Run(fmt.Sprintf("bystanders=%d", bystanders), func(t *testing.T) {
			db := sopr.Open()
			op := cascadeOp(t, db, bystanders)
			op() // the first operation also sizes the tables' storage
			before := db.Stats()
			op()
			after := db.Stats()
			if got := after.HeapScans - before.HeapScans; got != 51 {
				t.Errorf("heap scans per cascade operation = %d, want 51", got)
			}
			if got := after.RuleVisits - before.RuleVisits; got != 38 {
				t.Errorf("rule visits per cascade operation = %d, want 38", got)
			}
			allocs := testing.AllocsPerRun(5, op)
			t.Logf("allocations = %.0f", allocs)
			if allocs > 2259 {
				t.Errorf("allocations per cascade operation = %.0f, budget 2259", allocs)
			}
		})
	}
}

// acctDB returns a database loaded like the benchmark's acct workloads
// (bench/workload.go): the acct and branch tables, an index on acct.id and
// the roll rule, which counts every balance update into its branch.
func acctDB(accounts int) *sopr.DB {
	const branches = 50
	db := sopr.Open()
	db.MustExec(`create table acct (id int, branch int, bal int);
		create table branch (b int, region int, total int);
		create index acct_id on acct (id)`)
	db.MustExec(`create rule roll when updated acct.bal
		then update branch set total = total + 1
		     where b in (select branch from new updated acct.bal)
		end`)
	var b strings.Builder
	b.WriteString("insert into branch values ")
	for i := 0; i < branches; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, 0)", i, i%5)
	}
	db.MustExec(b.String())
	b.Reset()
	b.WriteString("insert into acct values ")
	for id := 0; id < accounts; id++ {
		if id > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", id, id%branches, 1000+id%100)
	}
	db.MustExec(b.String())
	return db
}

// TestCostBudgets pins the allocations of the benchmark's other scenarios
// at their measured counts plus at most 5 %. The update and batch pins
// were measured with statements bound before they run and the roll
// rule's statements bound once (update/100 and update/10000: 129 each,
// batch64/1000: 3,523; 144 and 3,600 when they were interpreted). The insert and delete pins
// were measured with the handle directory, the indexes and the column
// statistics in generation-stamped hash tries (insert/100: 65,
// insert/10000: 69, delete/100: 62, delete/10000: 67; before, with a copy
// of each per write, 185, 10,176, 173 and 10,164). cascade-setup's was
// measured before Figure 1's rule index existed (4,200). None of the
// operations runs beside more than one rule, so the index has nothing to
// skip in them: a change that raises a pin made the common path dearer. A
// change that claims a gain lowers its pin.
//
// The join and scan pins are mixed-rw's two set-oriented reads over
// 10,000 accounts, measured with base tables read in place, exactly sized
// join arenas and group member lists, and expressions bound once (join:
// 205 allocations and 468 KB, scan: 61 and 4 KB; with a copy of each
// table per read, 670 and 1.19 MB, 65 and 401 KB). A read allocates per
// relation, per group and per hash key, never per row: a per-row combo,
// binding snapshot or group-key string blows the counts, and a copy of
// the table blows the byte ceilings. Under -race both read a few more,
// and vary from run to run (join 215–223, scan 63–65), so their pins sit
// above those counts rather than at 5 % over the plain ones.
func TestCostBudgets(t *testing.T) {
	next := 0
	update := func(db *sopr.DB, accounts int) func() {
		return func() {
			next = (next + 37) % accounts
			if res := db.MustExec(fmt.Sprintf("update acct set bal = bal + 3 where id = %d", next)); len(res.Firings) != 1 {
				t.Fatalf("roll fired %d times, want 1", len(res.Firings))
			}
		}
	}
	batch := func(db *sopr.DB, accounts int) func() {
		stmts := make([]string, 64)
		return func() {
			for i := range stmts {
				next = (next + 37) % accounts
				stmts[i] = fmt.Sprintf("update acct set bal = bal + 3 where id = %d", next)
			}
			if res, err := db.ExecBatch(stmts); err != nil || len(res.Firings) != 1 {
				t.Fatalf("batch: %v", err)
			}
		}
	}
	// insert adds a fresh account past the loaded ones; remove deletes the
	// loaded accounts in id order, and its first, unmeasured call checks
	// that the account is gone.
	insert := func(db *sopr.DB, accounts int) func() {
		id := accounts
		return func() {
			db.MustExec(fmt.Sprintf("insert into acct values (%d, %d, %d)", id, id%50, 1000+id%100))
			id++
		}
	}
	remove := func(db *sopr.DB) func() {
		id := 0
		return func() {
			db.MustExec(fmt.Sprintf("delete from acct where id = %d", id))
			if id == 0 {
				if n := db.MustQuery("select count(*) from acct where id = 0").Data[0][0]; n != int64(0) {
					t.Fatalf("account 0 still counted %v times after its delete", n)
				}
			}
			id++
		}
	}
	query := func(db *sopr.DB, src string, rows int) func() {
		return func() {
			if got := len(db.MustQuery(src).Data); got != rows {
				t.Fatalf("%s: %d rows, want %d", src, got, rows)
			}
		}
	}
	allocs, bytes := map[string]float64{}, map[string]float64{}
	for _, c := range []struct {
		name   string
		op     func() func()
		budget float64
	}{
		// A one-row update and its roll firing (oltp-small, oltp-large).
		{"update/100", func() func() { return update(acctDB(100), 100) }, 135},
		{"update/10000", func() func() { return update(acctDB(10000), 10000) }, 135},
		// A one-row insert and a one-row delete: each moves
		// heap positions, so it writes the handle directory, the index
		// on id and every column's statistics.
		{"insert/100", func() func() { return insert(acctDB(100), 100) }, 69},
		{"insert/10000", func() func() { return insert(acctDB(10000), 10000) }, 73},
		{"delete/100", func() func() { return remove(acctDB(100)) }, 66},
		{"delete/10000", func() func() { return remove(acctDB(10000)) }, 71},
		// 64 updates as one ExecBatch block, one roll firing (batch-set).
		{"batch64/1000", func() func() { return batch(acctDB(1000), 1000) }, 3699},
		// rules-cascade's set-up: three tables and 201 rules, whose DDL
		// must not pay for Figure 1's rule index.
		{"cascade-setup", func() func() {
			return func() {
				db := sopr.Open()
				for _, src := range cascadeSetup(200) {
					db.MustExec(src)
				}
			}
		}, 4410},
		// mixed-rw's join and scan reads (bench/workload.go).
		{"join/10000", func() func() {
			return query(acctDB(10000), "select region, count(*), sum(bal) from acct, branch where acct.branch = branch.b group by region order by region", 5)
		}, 230},
		{"scan/10000", func() func() {
			return query(acctDB(10000), "select count(*) from acct where bal < 1050", 1)
		}, 66},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := c.op()
			op()
			allocs[c.name] = testing.AllocsPerRun(5, op)
			bytes[c.name] = bytesPerRun(5, op)
			t.Logf("allocations = %.0f, bytes = %.0f", allocs[c.name], bytes[c.name])
			if allocs[c.name] > c.budget {
				t.Errorf("allocations = %.0f, budget %.0f", allocs[c.name], c.budget)
			}
		})
	}
	// A read allocates no copy of the table it reads.
	for name, ceiling := range map[string]float64{"scan/10000": 100 << 10, "join/10000": 600 << 10} {
		if bytes[name] > ceiling {
			t.Errorf("%s allocates %.0f bytes, ceiling %.0f", name, bytes[name], ceiling)
		}
	}
	// A one-row update copies one heap chunk, not its table: at 100 times
	// the rows it may allocate at most twice the bytes.
	if small, large := bytes["update/100"], bytes["update/10000"]; large > 2*small {
		t.Errorf("update/10000 allocates %.0f bytes, more than twice update/100's %.0f", large, small)
	}
	// An insert or a delete copies one path of each trie, not its
	// directory, index or statistics: at 100 times the rows it may
	// allocate at most twice as often.
	for _, op := range []string{"insert", "delete"} {
		if small, large := allocs[op+"/100"], allocs[op+"/10000"]; large > 2*small {
			t.Errorf("%s/10000 allocates %.0f times, more than twice %s/100's %.0f", op, large, op, small)
		}
	}
}

// bytesPerRun reports the average number of bytes op allocates per call,
// like testing.AllocsPerRun does for allocation counts.
func bytesPerRun(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
