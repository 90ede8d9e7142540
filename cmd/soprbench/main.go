// Command soprbench regenerates the experiment tables recorded in
// EXPERIMENTS.md. The paper (SIGMOD 1990) is a semantics paper with no
// measurement tables; these experiments validate its worked examples (E1)
// and quantify its qualitative performance claims (B1–B8). See DESIGN.md §5
// for the experiment index.
//
//	go run ./cmd/soprbench            # run everything
//	go run ./cmd/soprbench -exp B1    # one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/catalog"
	"sopr/internal/engine"
	"sopr/internal/exec"
	"sopr/internal/instance"
	"sopr/internal/rules"
	"sopr/internal/server"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	sstorage "sopr/internal/storage"
	"sopr/internal/value"
)

// experiments maps each -exp name, in upper case, to the function that runs it.
var experiments = map[string]func(){
	"E1": e1, "E5": e5, "B1": b1, "B2": b2, "B3": b3, "B4": b4,
	"B5": b5, "B6": b6, "B7": b7, "B8": b8, "B9": b9,
	"B12": b12, "B13": b13, "B13B": b13b, "B14": b14, "S1": s1, "S1B": s1b,
	"S2": s2, "S3": s3, "S4": s4, "S5": s5, "F1": f1,
}

// experimentNames returns the experiment names, sorted.
func experimentNames() []string {
	names := make([]string, 0, len(experiments))
	for k := range experiments {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames(), ", ")+" or all")
	flag.IntVar(&s2TotalOps, "s2ops", 2000, "total read operations per S2 table cell")
	flag.IntVar(&s3TotalOps, "s3ops", 2000, "total read operations per S3 table row")
	flag.IntVar(&s4TotalOps, "s4ops", 2000, "total read operations per S4 table row")
	flag.IntVar(&s5Txns, "s5txns", 300, "committed transactions per S5 table row")
	flag.Parse()
	os.Exit(run(*exp, os.Stderr))
}

// run runs the named experiment (any case), or every one in name order for
// "all", and returns the exit status: 2, with a message on stderr, for an
// unknown name.
func run(exp string, stderr io.Writer) int {
	if exp == "all" {
		for _, k := range experimentNames() {
			experiments[k]()
			fmt.Println()
		}
		return 0
	}
	fn, ok := experiments[strings.ToUpper(exp)]
	if !ok {
		fmt.Fprintf(stderr, "soprbench: unknown experiment %q; use %s or all\n", exp, strings.Join(experimentNames(), ", "))
		return 2
	}
	fn()
	return 0
}

// benchSink receives each measured computation's result so the compiler
// cannot prove the work dead and elide it (a blank assignment carries no
// such guarantee).
var benchSink any

// timeIt returns the median wall time of reps runs of fn.
func timeIt(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func header(name, desc string) {
	fmt.Printf("== %s — %s ==\n", name, desc)
}

// ---------------------------------------------------------------------------

// e1 replays the Example 4.3 interaction and prints the firing sequence
// next to the paper's narration.
func e1() {
	header("E1", "Example 4.3 rule-interaction trace (paper §4.5)")
	db := sopr.Open()
	db.MustExec(`
		create table emp (name varchar, emp_no int not null, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int)`)
	db.MustExec(`
		create rule mgr_cascade when deleted from emp
		then delete from emp where dept_no in
		     (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
		     delete from dept where mgr_no in (select emp_no from deleted emp)
		end;
		create rule salary_watch when updated emp.salary
		if (select avg(salary) from new updated emp.salary) > 50000
		then delete from emp
		     where emp_no in (select emp_no from new updated emp.salary) and salary > 80000
		end;
		create rule priority salary_watch before mgr_cascade`)
	db.MustExec(`
		insert into emp values ('jane',1,60000,0), ('mary',2,70000,1), ('jim',3,55000,1),
			('bill',4,25000,2), ('sam',5,40000,3), ('sue',6,45000,3);
		insert into dept values (1,1), (2,2), (3,3)`)
	res := db.MustExec(`
		delete from emp where name = 'jane';
		update emp set salary = 30000 where name = 'bill';
		update emp set salary = 85000 where name = 'mary'`)

	paper := []string{
		"R2 deletes Mary (updated set {bill, mary}, avg > 50K)",
		"R1 deletes Jim, Bill + depts 1,2 (deleted set {jane, mary})",
		"R1 deletes Sam, Sue + dept 3 (deleted set {jim, bill})",
		"R1 deletes nothing (deleted set {sam, sue}); processing stops",
	}
	fmt.Printf("%-4s %-14s %-22s %s\n", "#", "rule", "effect", "paper narration")
	for i, f := range res.Firings {
		narr := ""
		if i < len(paper) {
			narr = paper[i]
		}
		fmt.Printf("%-4d %-14s %-22s %s\n", i+1, f.Rule, f.Effect, narr)
	}
	emp := db.MustQuery(`select count(*) from emp`).Data[0][0]
	dept := db.MustQuery(`select count(*) from dept`).Data[0][0]
	fmt.Printf("final: emp=%v dept=%v (paper: both empty)\n", emp, dept)
}

// ---------------------------------------------------------------------------

func insertScript(base, k int) string {
	var b strings.Builder
	b.WriteString("insert into t values ")
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", base+i, (base+i)%97)
	}
	return b.String()
}

const b1Rule = `
	create rule log when inserted into t
	then insert into audit (select id, v from inserted t)
	end`

// b1 compares set-oriented vs instance-oriented rule execution.
func b1() {
	header("B1", "set-oriented vs instance-oriented rules (paper §1 claim)")
	fmt.Printf("%-8s %14s %14s %8s\n", "batch", "set µs/txn", "inst µs/txn", "ratio")
	for _, k := range []int{1, 4, 16, 64, 256, 1024, 2048} {
		db := sopr.Open()
		db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
		db.MustExec(b1Rule)
		base := 0
		set := timeIt(7, func() { db.MustExec(insertScript(base, k)); base += k })

		ie := instance.New()
		must(ie.Exec(`create table t (id int, v int); create table audit (id int, v int)`))
		must(ie.Exec(b1Rule))
		base = 0
		inst := timeIt(7, func() { must(ie.Exec(insertScript(base, k))); base += k })

		fmt.Printf("%-8d %14.1f %14.1f %8.2f\n", k,
			float64(set.Microseconds()), float64(inst.Microseconds()),
			float64(inst)/float64(set))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------------

func opStream(n int) []*exec.OpResult {
	var live []sstorage.Handle
	next := sstorage.Handle(0)
	row := sstorage.Row{}
	ops := make([]*exec.OpResult, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(live) == 0 || i%3 == 0:
			next++
			live = append(live, next)
			ops = append(ops, &exec.OpResult{Table: "t", Inserted: []sstorage.Handle{next}})
		case i%3 == 1:
			h := live[i%len(live)]
			ops = append(ops, &exec.OpResult{Table: "t", Updated: []exec.UpdatedTuple{{Handle: h, OldRow: row, Cols: []int{0}}}})
		default:
			j := i % len(live)
			h := live[j]
			live = append(live[:j], live[j+1:]...)
			ops = append(ops, &exec.OpResult{Table: "t", Deleted: []exec.DeletedTuple{{Handle: h, OldRow: row}}})
		}
	}
	return ops
}

func b2() {
	header("B2", "transition effect composition cost (Definition 2.1)")
	fmt.Printf("%-10s %12s %14s\n", "ops/block", "µs/block", "ns/op")
	for _, n := range []int{10, 100, 1000, 10000} {
		ops := opStream(n)
		d := timeIt(9, func() {
			eff := rules.NewEffect()
			for _, op := range ops {
				eff.AddOp(op)
			}
		})
		fmt.Printf("%-10d %12.1f %14.1f\n", n,
			float64(d.Microseconds()), float64(d.Nanoseconds())/float64(n))
	}
}

// ---------------------------------------------------------------------------

func b3() {
	header("B3", "rule selection overhead vs number of defined rules (§4.4)")
	fmt.Printf("%-8s %14s\n", "rules", "µs/txn")
	for _, n := range []int{1, 10, 100, 1000} {
		db := sopr.Open()
		db.MustExec(`create table t (id int, v int); create table other (id int)`)
		for i := 0; i < n-1; i++ {
			db.MustExec(fmt.Sprintf(`create rule r%04d when inserted into other then delete from other end`, i))
		}
		db.MustExec(`create rule hit when inserted into t then delete from other end`)
		i := 0
		d := timeIt(9, func() { db.MustExec(fmt.Sprintf(`insert into t values (%d, 0)`, i)); i++ })
		fmt.Printf("%-8d %14.1f\n", n, float64(d.Microseconds()))
	}
}

// ---------------------------------------------------------------------------

func b4() {
	header("B4", "Example 4.1 recursive cascade vs management-chain depth")
	fmt.Printf("%-8s %14s %12s\n", "depth", "µs/cascade", "firings")
	for _, depth := range []int{2, 4, 8, 16, 32, 64} {
		var firings int
		d := timeIt(5, func() {
			db := sopr.Open()
			db.MustExec(`
				create table emp (name varchar, emp_no int, salary float, dept_no int);
				create table dept (dept_no int, mgr_no int)`)
			db.MustExec(`
				create rule mgr_cascade when deleted from emp
				then delete from emp where dept_no in
				     (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
				     delete from dept where mgr_no in (select emp_no from deleted emp)
				end`)
			var emps, depts strings.Builder
			emps.WriteString("insert into emp values ('m1', 1, 0, 0)")
			depts.WriteString("insert into dept values ")
			for d := 1; d <= depth; d++ {
				fmt.Fprintf(&depts, "(%d, %d)", d, d)
				if d < depth {
					depts.WriteString(", ")
				}
				fmt.Fprintf(&emps, ", ('m%d', %d, 0, %d)", d+1, d+1, d)
			}
			db.MustExec(emps.String())
			db.MustExec(depts.String())
			res := db.MustExec(`delete from emp where emp_no = 1`)
			firings = len(res.Firings)
		})
		fmt.Printf("%-8d %14.1f %12d\n", depth, float64(d.Microseconds()), firings)
	}
	fmt.Println("(setup included; firings = depth+1: one per level plus the empty fixpoint firing)")
}

// ---------------------------------------------------------------------------

func b5() {
	header("B5", "transition-table materialization vs update-set size (§3)")
	fmt.Printf("%-10s %14s\n", "updated", "µs/txn")
	for _, k := range []int{10, 100, 1000, 5000} {
		db := sopr.Open()
		db.MustExec(`create table emp (name varchar, emp_no int, salary float, dept_no int)`)
		var ins strings.Builder
		ins.WriteString("insert into emp values ")
		for i := 0; i < k; i++ {
			if i > 0 {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "('e%d', %d, %d, 1)", i, i, 1000+i)
		}
		db.MustExec(ins.String())
		db.MustExec(`
			create rule watch when updated emp.salary
			if (select sum(salary) from new updated emp.salary) <
			   (select sum(salary) from old updated emp.salary)
			then delete from emp where emp_no < 0
			end`)
		d := timeIt(5, func() { db.MustExec(`update emp set salary = salary + 1`) })
		fmt.Printf("%-10d %14.1f\n", k, float64(d.Microseconds()))
	}
}

// ---------------------------------------------------------------------------

func b6() {
	header("B6", "query engine substrate (scan / join / aggregate)")
	db := sopr.Open()
	db.MustExec(`create table emp (name varchar, emp_no int, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int)`)
	var ins strings.Builder
	const rows = 10000
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if i > 0 {
				db.MustExec(ins.String())
			}
			ins.Reset()
			ins.WriteString("insert into emp values ")
		} else {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "('e%d', %d, %d, %d)", i, i, i%5000, i%16)
	}
	db.MustExec(ins.String())
	var dins strings.Builder
	dins.WriteString("insert into dept values ")
	for d := 0; d < 16; d++ {
		if d > 0 {
			dins.WriteString(", ")
		}
		fmt.Fprintf(&dins, "(%d, %d)", d, d)
	}
	db.MustExec(dins.String())

	cases := []struct{ label, q string }{
		{"scan+filter 10k rows", `select name from emp where salary > 2500 and dept_no = 3`},
		{"join 10k x 16", `select e.name from emp e, dept d where e.dept_no = d.dept_no and d.mgr_no = 3`},
		{"group-by 10k rows", `select dept_no, avg(salary), count(*) from emp group by dept_no having count(*) > 10`},
		{"correlated subquery 100", `select name from emp e1 where emp_no < 100 and salary > 2 * (select avg(salary) from emp e2 where e2.dept_no = e1.dept_no and e2.emp_no < 100)`},
	}
	fmt.Printf("%-28s %14s\n", "query", "ms/query")
	for _, c := range cases {
		d := timeIt(5, func() { db.MustQuery(c.q) })
		fmt.Printf("%-28s %14.2f\n", c.label, float64(d.Microseconds())/1000)
	}
}

// ---------------------------------------------------------------------------

func b7() {
	header("B7", "Figure 1 incremental trans-info vs naive recomposition")
	fmt.Printf("%-13s %16s %14s %8s\n", "transitions", "incremental µs", "naive µs", "ratio")
	for _, n := range []int{10, 50, 100, 400} {
		// Pre-build n transition effects of 8 ops each.
		stream := make([]*rules.Effect, n)
		ops := opStream(n * 8)
		for i := range stream {
			e := rules.NewEffect()
			for _, op := range ops[i*8 : (i+1)*8] {
				e.AddOp(op)
			}
			stream[i] = e
		}
		inc := timeIt(7, func() {
			acc := rules.NewEffect()
			for _, e := range stream {
				acc.Apply(e)
				benchSink = acc.IsEmpty()
			}
		})
		naive := timeIt(7, func() {
			for j := 1; j <= len(stream); j++ {
				acc := rules.NewEffect()
				for _, e := range stream[:j] {
					acc.Apply(e)
				}
				benchSink = acc.IsEmpty()
			}
		})
		fmt.Printf("%-13d %16.1f %14.1f %8.1f\n", n,
			float64(inc.Microseconds()), float64(naive.Microseconds()),
			float64(naive)/float64(inc))
	}
}

// ---------------------------------------------------------------------------

func b8() {
	header("B8", "compiled integrity-rule overhead (CW90 facility, §6)")
	mk := func(withConstraints bool) *sopr.DB {
		db := sopr.Open()
		db.MustExec(`
			create table dept (dept_no int, mgr_no int);
			create table emp (name varchar, emp_no int, salary float, dept_no int)`)
		db.MustExec(`insert into dept values (1,1), (2,2), (3,3), (4,4)`)
		if withConstraints {
			must2(db.AddConstraint(sopr.ForeignKey("fk", "emp", "dept_no", "dept", "dept_no", sopr.CascadeDelete)))
			must2(db.AddConstraint(sopr.Check("pay", "emp", "salary >= 0")))
		}
		return db
	}
	fmt.Printf("%-16s %14s\n", "configuration", "µs/insert")
	for _, w := range []bool{false, true} {
		db := mk(w)
		i := 0
		d := timeIt(9, func() {
			db.MustExec(fmt.Sprintf(`insert into emp values ('e', %d, 100, %d)`, i, i%4+1))
			i++
		})
		label := "unconstrained"
		if w {
			label = "constrained"
		}
		fmt.Printf("%-16s %14.1f\n", label, float64(d.Microseconds()))
	}
}

func must2(err error) {
	if err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------------

func b9() {
	header("B9", "ablation: planned hash join vs naive nested loops")
	fmt.Printf("%-8s %14s %14s %10s\n", "rows", "planned ms", "naive ms", "speedup")
	for _, n := range []int{100, 500, 1000, 2000} {
		st := sstorage.New()
		for _, name := range []string{"l", "r"} {
			tab, err := catalog.NewTable(name, []catalog.Column{
				{Name: "k", Type: value.KindInt},
				{Name: "v", Type: value.KindInt},
			})
			must(err)
			must(st.CreateTable(tab))
			for i := 0; i < n; i++ {
				_, err := st.Insert(name, sstorage.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
				must(err)
			}
		}
		stmt, err := sqlparse.ParseStatement(`select count(*) from l, r where l.k = r.k and l.v > 2`)
		must(err)
		sel := stmt.(*sqlast.Select)
		plannedEnv := &exec.Env{Store: st}
		naiveEnv := &exec.Env{Store: st, Naive: true}
		planned := timeIt(5, func() { _, err := plannedEnv.Query(sel); must(err) })
		naive := timeIt(3, func() { _, err := naiveEnv.Query(sel); must(err) })
		fmt.Printf("%-8d %14.2f %14.2f %10.1f\n", n,
			float64(planned.Microseconds())/1000, float64(naive.Microseconds())/1000,
			float64(naive)/float64(planned))
	}
}

// ---------------------------------------------------------------------------

// b12 measures the secondary hash index access path (CREATE INDEX) against
// the heap-scan fallback: selective equality lookups on a 10k-row table,
// and a rule cascade whose action selects children by parent id through an
// IN-subselect. Both configurations run identical statements; the only
// difference is whether indexes exist.
func b12() {
	header("B12", "secondary hash index vs heap scan (CREATE INDEX)")

	const rows = 10000
	mkFlat := func(indexed bool) *sopr.DB {
		db := sopr.Open()
		db.MustExec(`create table t (id int, v int)`)
		var ins strings.Builder
		for i := 0; i < rows; i++ {
			if i%500 == 0 {
				if i > 0 {
					db.MustExec(ins.String())
				}
				ins.Reset()
				ins.WriteString("insert into t values ")
			} else {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d)", i, i%97)
		}
		db.MustExec(ins.String())
		if indexed {
			db.MustExec(`create index t_id on t (id)`)
		}
		return db
	}
	fmt.Printf("%-30s %12s %12s %8s\n", "workload", "indexed µs", "scan µs", "speedup")
	withIdx, noIdx := mkFlat(true), mkFlat(false)
	probe := func(db *sopr.DB) func() {
		k := 0
		return func() {
			k = (k*7 + 13) % rows
			benchSink = db.MustQuery(fmt.Sprintf(`select v from t where id = %d`, k))
		}
	}
	pi := timeIt(9, probe(withIdx))
	ps := timeIt(9, probe(noIdx))
	fmt.Printf("%-30s %12.1f %12.1f %8.1f\n", "point lookup, 10k rows",
		float64(pi.Microseconds()), float64(ps.Microseconds()),
		float64(ps)/float64(pi))

	// Rule cascade: deleting one parent fires a rule that removes its
	// children via `pid in (select id from deleted parent)`. The indexed
	// configuration serves both the outer DELETE's WHERE and the rule's
	// child lookup from hash indexes.
	const parents, fanout = 1000, 10
	mkCascade := func(indexed bool) *sopr.DB {
		db := sopr.Open()
		db.MustExec(`create table parent (id int, tag int);
			create table child (id int, pid int)`)
		var ins strings.Builder
		ins.WriteString("insert into parent values ")
		for i := 0; i < parents; i++ {
			if i > 0 {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d)", i, i%7)
		}
		db.MustExec(ins.String())
		for i := 0; i < parents*fanout; i++ {
			if i%500 == 0 {
				if i > 0 {
					db.MustExec(ins.String())
				}
				ins.Reset()
				ins.WriteString("insert into child values ")
			} else {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d)", i, i%parents)
		}
		db.MustExec(ins.String())
		db.MustExec(`create rule cascade when deleted from parent
			then delete from child where pid in (select id from deleted parent)
			end`)
		if indexed {
			db.MustExec(`create index parent_id on parent (id);
				create index child_pid on child (pid)`)
		}
		return db
	}
	del := func(db *sopr.DB) func() {
		k := 0
		return func() {
			db.MustExec(fmt.Sprintf(`delete from parent where id = %d`, k))
			k++
		}
	}
	ci := timeIt(9, del(mkCascade(true)))
	cs := timeIt(9, del(mkCascade(false)))
	fmt.Printf("%-30s %12.1f %12.1f %8.1f\n", "delete cascade rule, 10x1k",
		float64(ci.Microseconds()), float64(cs.Microseconds()),
		float64(cs)/float64(ci))
}

// b13 measures write-ahead-log durability cost: committed-transaction
// throughput under each fsync policy, against the in-memory engine as the
// ceiling. Each transaction is one single-row INSERT that fires an update
// rule, so every commit logs a rule-composed net effect (Definition 2.1).
// The log lives on the real filesystem — fsync latency IS the experiment.
func b13() {
	header("B13", "fsync policy vs committed-txn throughput (WAL)")

	const txns = 300
	schema := `create table t (id int, v int);
		create rule bump when inserted into t
		then update t set v = v + 1 where id in (select id from inserted t)
		end`
	workload := func(db interface{ MustExec(string) *sopr.Result }) func() {
		i := 0
		return func() {
			for j := 0; j < txns; j++ {
				db.MustExec(fmt.Sprintf(`insert into t values (%d, 0)`, i))
				i++
			}
		}
	}

	type cfg struct {
		name string
		open func(dir string) *sopr.DB
	}
	cfgs := []cfg{
		{"memory (no log)", func(string) *sopr.DB { return sopr.Open() }},
		{"fsync=never", func(dir string) *sopr.DB {
			db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncNever))
			must(err)
			return db
		}},
		{"fsync=interval (100ms)", func(dir string) *sopr.DB {
			db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncInterval))
			must(err)
			return db
		}},
		{"fsync=always", func(dir string) *sopr.DB {
			db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways))
			must(err)
			return db
		}},
	}
	fmt.Printf("%-24s %12s %12s\n", "policy", "txn/s", "µs/txn")
	for _, c := range cfgs {
		dir, err := os.MkdirTemp("", "soprbench-b13-*")
		must(err)
		db := c.open(dir)
		db.MustExec(schema)
		d := timeIt(3, workload(db))
		must(db.Close())
		must(os.RemoveAll(dir))
		perTxn := float64(d.Microseconds()) / txns
		fmt.Printf("%-24s %12.0f %12.1f\n", c.name, 1e6/perTxn, perTxn)
	}
	fmt.Println("\n(fsync=always pays one fsync per commit; interval amortizes them at a")
	fmt.Println(" bounded-loss window; never leaves durability to the OS page cache)")
}

// b13b measures group commit: committed-transaction throughput at
// fsync=always as concurrent committers grow. B13 is one committer paying
// one fsync per commit; here overlapping committers park on the commit
// queue and the group leader's single fsync acknowledges every queued
// transaction, so throughput should climb with concurrency while
// txns/sync — transactions acknowledged per physical fsync — rises above
// 1. Each transaction is one single-row UPDATE of the committer's own row
// that fires a counter-bump rule; both mutated tables stay at a constant
// size, so per-transaction engine work is constant and the fsync is the
// bottleneck being amortized. (A growing table would bury the effect:
// every commit publishes a snapshot, so the next mutation's copy-on-write
// table clone is O(rows).) The log lives on the real filesystem, as in
// B13.
func b13b() {
	header("B13b", "group commit: fsync=always txn throughput vs concurrent committers")
	const txns = 200 // committed transactions per committer
	fmt.Printf("%-12s %12s %12s %12s %11s %8s\n",
		"committers", "txns", "txn/s", "µs/txn", "txns/sync", "vs 1")
	var base float64
	for _, nw := range []int{1, 2, 4, 8, 16} {
		dir, err := os.MkdirTemp("", "soprbench-b13b-*")
		must(err)
		db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways))
		must(err)
		sdb := sopr.Synchronized(db)
		sdb.MustExec(`create table t (id int, v int); create table agg (n int);
			create rule tally when updated t.v
			then update agg set n = n + 1
			end`)
		for w := 0; w < nw; w++ {
			sdb.MustExec(fmt.Sprintf(`insert into t values (%d, 0)`, w))
		}
		sdb.MustExec(`insert into agg values (0)`)
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stmt := fmt.Sprintf(`update t set v = v + 1 where id = %d`, w)
				for j := 0; j < txns; j++ {
					sdb.MustExec(stmt)
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(t0)
		st := sdb.Stats()
		must(sdb.Close())
		must(os.RemoveAll(dir))
		total := nw * txns
		perTxn := float64(d.Microseconds()) / float64(total)
		txnSec := 1e6 / perTxn
		if nw == 1 {
			base = txnSec
		}
		fmt.Printf("%-12d %12d %12.0f %12.1f %11.2f %7.1fx\n",
			nw, total, txnSec, perTxn, st.TxnsPerSync(), txnSec/base)
	}
	fmt.Println("\n(committers that overlap share the leader's fsync; txns/sync is the")
	fmt.Println(" amortization factor — 1.00 means every commit paid its own fsync)")
}

// ---------------------------------------------------------------------------

// b14 measures the cost-based join planner on multi-join rule cascades:
// two chained rules whose conditions each join a transition table against
// two base tables, with the FROM clause deliberately listing the largest
// table first. Under Config.Naive the engine evaluates the condition in
// FROM order — a three-way nested loop over big × mid × inserted. The
// planner reorders the join to start from the (tiny) transition table and
// hash-joins outward, so the per-consideration cost collapses from
// O(|big|·|mid|) to O(|big|+|mid|). The chosen plan is printed via EXPLAIN
// so the mechanism is visible next to the numbers.
func b14() {
	header("B14", "cost-based join planner vs naive nested loops (rule-condition joins)")
	load := func(eng *engine.Engine, table string, n, mod int) {
		var b strings.Builder
		fmt.Fprintf(&b, "insert into %s values ", table)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, i%mod)
		}
		_, err := eng.Exec(b.String())
		must(err)
	}
	setup := func(naive bool, n int) *engine.Engine {
		eng := engine.New(engine.Config{Naive: naive})
		exec1 := func(s string) {
			_, err := eng.Exec(s)
			must(err)
		}
		exec1(`create table ev (k int, v int); create table big (k int, j int);
			create table mid (j int, w int); create table sink (k int, v int);
			create table sink2 (k int, v int)`)
		load(eng, "big", n, 97)
		load(eng, "mid", n/10, 97)
		exec1(`create rule stage1 when inserted into ev
			if exists (select * from big b, mid m, inserted ev e
			           where b.k = e.k and b.j = m.j)
			then insert into sink (select k, v from inserted ev) end`)
		exec1(`create rule stage2 when inserted into sink
			if exists (select * from big b, mid m, inserted sink s
			           where b.k = s.k and b.j = m.j)
			then insert into sink2 (select k, v from inserted sink) end`)
		return eng
	}
	fmt.Printf("%-10s %14s %14s %10s\n", "big rows", "planned ms", "naive ms", "speedup")
	for _, n := range []int{500, 1000, 2000} {
		run := func(naive bool) time.Duration {
			eng := setup(naive, n)
			base := 0
			reps := 5
			if naive {
				reps = 3
			}
			return timeIt(reps, func() {
				_, err := eng.Exec(fmt.Sprintf(
					"insert into ev values (%d, 0), (%d, 0), (%d, 0), (%d, 0)",
					base%n, (base+1)%n, (base+2)%n, (base+3)%n))
				must(err)
				base += 4
			})
		}
		planned := run(false)
		naive := run(true)
		fmt.Printf("%-10d %14.2f %14.2f %10.1f\n", n,
			float64(planned.Microseconds())/1000, float64(naive.Microseconds())/1000,
			float64(naive)/float64(planned))
	}
	eng := setup(false, 2000)
	res, err := eng.QueryString(`explain select * from big b, mid m, inserted ev e where b.k = e.k and b.j = m.j`)
	must(err)
	fmt.Println("chosen plan for the stage-1 condition join (2000 base rows):")
	fmt.Print(res.String())
}

// s1 measures the soprd network front-end: sustained operation throughput
// as the number of concurrent clients grows. Every operation is one
// single-row insert transaction that fires the B1 audit rule, so each
// request runs the full stack: wire framing, the serialized engine stream,
// rule processing, response framing. Because the engine is one serialized
// stream (paper §2.1), throughput should saturate once enough clients keep
// it busy; beyond that, added clients only add queueing.
func s1() {
	header("S1", "soprd server throughput vs concurrent clients")
	fmt.Printf("%-10s %12s %12s %12s\n", "clients", "ops", "ops/sec", "µs/op")
	for _, nc := range []int{1, 2, 4, 8, 16, 32} {
		ops, elapsed := s1run(nc, 4096)
		opsSec := float64(ops) / elapsed.Seconds()
		fmt.Printf("%-10d %12d %12.0f %12.1f\n", nc, ops,
			opsSec, float64(elapsed.Microseconds())/float64(ops))
	}
	fmt.Println("(one serialized engine stream; ops/sec should plateau once clients cover the round-trip latency)")
}

// s1run starts a server on a loopback port, hammers it with totalOps
// single-row insert transactions spread over nc concurrent clients, and
// reports the operations completed and the wall time taken.
func s1run(nc, totalOps int) (int, time.Duration) {
	db := sopr.Open()
	db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
	db.MustExec(b1Rule)
	srv := server.New(sopr.Synchronized(db), server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	must(err)
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		must(srv.Shutdown(ctx))
	}()

	per := totalOps / nc
	clients := make([]*client.Client, nc)
	for i := range clients {
		c, err := client.Dial(ln.Addr().String())
		must(err)
		clients[i] = c
		defer c.Close()
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	t0 := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			<-start
			base := i * 1_000_000
			for j := 0; j < per; j++ {
				_, err := c.Exec(fmt.Sprintf(`insert into t values (%d, %d)`, base+j, j%97))
				must(err)
			}
		}(i, c)
	}
	close(start)
	wg.Wait()
	return nc * per, time.Since(t0)
}

// s1b measures set-oriented batch submission: the S1 workload resubmitted
// through MsgExecBatch in blocks of k statements. Each block is one wire
// round trip and ONE operation block — one parse-and-execute engine pass,
// one rule-processing point over the block's net effect, one commit — so
// per-statement cost should fall as k grows until engine work dominates
// framing. The batch=1 row isolates the protocol overhead of the batch
// frame itself against plain Exec.
func s1b() {
	header("S1b", "batch Exec throughput vs batch size (MsgExecBatch)")
	const nc, totalOps = 4, 4096
	ops, elapsed := s1run(nc, totalOps)
	baseSec := float64(ops) / elapsed.Seconds()
	fmt.Printf("%-12s %12s %12s %12s %8s\n", "batch", "ops", "ops/sec", "µs/op", "vs S1")
	fmt.Printf("%-12s %12d %12.0f %12.1f %8s\n", "Exec", ops, baseSec,
		float64(elapsed.Microseconds())/float64(ops), "1.0x")
	for _, k := range []int{1, 4, 8, 32} {
		ops, d := s1brun(nc, k, totalOps)
		opsSec := float64(ops) / d.Seconds()
		fmt.Printf("%-12d %12d %12.0f %12.1f %7.1fx\n", k, ops, opsSec,
			float64(d.Microseconds())/float64(ops), opsSec/baseSec)
	}
	fmt.Println("(each batch is one round trip and one operation block: framing,")
	fmt.Println(" engine dispatch, and rule processing amortize over k statements)")
}

// s1brun is s1run with batching: totalOps single-row inserts spread over
// nc concurrent clients, each client submitting its share as ExecBatch
// blocks of k statements.
func s1brun(nc, k, totalOps int) (int, time.Duration) {
	db := sopr.Open()
	db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
	db.MustExec(b1Rule)
	srv := server.New(sopr.Synchronized(db), server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	must(err)
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		must(srv.Shutdown(ctx))
	}()

	per := totalOps / nc / k * k // whole blocks per client
	clients := make([]*client.Client, nc)
	for i := range clients {
		c, err := client.Dial(ln.Addr().String())
		must(err)
		clients[i] = c
		defer c.Close()
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	t0 := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			<-start
			base := i * 1_000_000
			for j := 0; j < per; j += k {
				stmts := make([]string, k)
				for s := range stmts {
					stmts[s] = fmt.Sprintf(`insert into t values (%d, %d)`, base+j+s, (j+s)%97)
				}
				_, err := c.ExecBatch(stmts)
				must(err)
			}
		}(i, c)
	}
	close(start)
	wg.Wait()
	return nc * per, time.Since(t0)
}

// ---------------------------------------------------------------------------

// s2TotalOps is the number of read operations measured per S2 table cell
// (the -s2ops flag; CI smoke runs shrink it).
var s2TotalOps = 2000

// s2 measures the lock-free read path: aggregate query throughput as
// reader goroutines grow, with and without a concurrent writer. Queries
// acquire nothing — they run against the published MVCC snapshot (one
// atomic pointer load); they perform no transition and trigger no rules,
// so nothing in the paper's §2.1 single-stream model requires them to
// serialize with anything — while the writer's Exec takes the write
// mutex. Each read is a filtered COUNT over a 4k-row heap scan (no index
// on v), so per-operation work dominates snapshot-load overhead; the
// writer runs rule-firing insert+delete transactions that keep the
// scanned table at a constant size. On a multi-core host read-only
// throughput scales with readers until cores run out; on a single core
// the curve is flat (time-slicing, no parallelism) and the interesting
// number is that added readers cost nothing. S1 is the historical
// contrast: before reads left the write stream, queries funneled through
// one mutex and the plateau was single-core throughput no matter the
// client count; S3 compares this snapshot path against the intermediate
// shared-lock design head to head.
func s2() {
	header("S2", "concurrent read throughput vs reader goroutines (snapshot reads)")
	db := sopr.Open()
	db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
	db.MustExec(b1Rule)
	var ins strings.Builder
	const rows = 4000
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if i > 0 {
				db.MustExec(ins.String())
			}
			ins.Reset()
			ins.WriteString("insert into t values ")
		} else {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i%97)
	}
	db.MustExec(ins.String())
	sdb := sopr.Synchronized(db)

	fmt.Printf("%-9s %-12s %12s %12s %12s\n", "readers", "writer", "reads/sec", "µs/read", "writes/sec")
	var base float64
	for _, withWriter := range []bool{false, true} {
		for _, nr := range []int{1, 2, 4, 8} {
			elapsed, writes := s2run(sdb, nr, s2TotalOps, withWriter)
			total := (s2TotalOps / nr) * nr
			rps := float64(total) / elapsed.Seconds()
			wlabel := "none"
			wps := "-"
			if withWriter {
				wlabel = "1 (busy)"
				wps = fmt.Sprintf("%12.0f", float64(writes)/elapsed.Seconds())
			} else if nr == 1 {
				base = rps
			}
			fmt.Printf("%-9d %-12s %12.0f %12.1f %12s\n", nr, wlabel,
				rps, float64(elapsed.Microseconds())/float64(total), wps)
		}
	}
	if base > 0 {
		fmt.Printf("(GOMAXPROCS=%d; read-only scaling is bounded by cores — expect ~min(readers, cores)× the 1-reader row)\n",
			runtime.GOMAXPROCS(0))
	}
}

// s2run drives nr reader goroutines through total/nr queries each (plus,
// optionally, one writer goroutine looping rule-firing transactions until
// the readers finish) and returns the readers' wall time and the number
// of write transactions that committed meanwhile.
func s2run(sdb *sopr.SynchronizedDB, nr, total int, withWriter bool) (time.Duration, int64) {
	stop := make(chan struct{})
	var writes atomic.Int64
	var wwg sync.WaitGroup
	if withWriter {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			i := 1_000_000_000 // ids disjoint from the resident rows
			for {
				select {
				case <-stop:
					return
				default:
				}
				sdb.MustExec(fmt.Sprintf(`insert into t values (%d, %d)`, i, i%97))
				sdb.MustExec(fmt.Sprintf(`delete from t where id = %d`, i))
				writes.Add(2)
				i++
			}
		}()
	}
	per := total / nr
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < nr; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				benchSink = sdb.MustQuery(fmt.Sprintf(`select count(*) from t where v = %d`, (r*31+j)%97))
			}
		}(r)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(stop)
	wwg.Wait()
	return elapsed, writes.Load()
}

// ---------------------------------------------------------------------------

// e5 responds to the paper's §4.4 remark that "for a thorough comparison
// and evaluation of rule selection strategies we must consider a number of
// large-scale examples": it runs a workload against an order-processing
// rule program under each selection strategy, with and without declared
// priorities, reporting work done and whether final states agree.
func e5() {
	header("E5", "rule selection strategies on a larger example (§4.4)")

	build := func(strat sopr.Strategy, withPriorities bool) (*sopr.DB, string) {
		db := sopr.Open(sopr.WithStrategy(strat))
		db.MustExec(`
			create table orders (id int, qty int, status varchar);
			create table stock (qty int);
			create table backlog (id int);
			create table audit (id int, note varchar)`)
		db.MustExec(`insert into stock values (100)`)
		// Three interacting rules: fulfiller consumes stock, backlogger
		// files unfulfillable orders, auditor records everything. The
		// fulfiller/backlogger pair conflicts (both react to new orders
		// and their effects depend on order of execution against stock).
		db.MustExec(`
			create rule fulfill when inserted into orders
			then update orders set status = 'ok'
			     where status = 'new' and qty <= (select qty from stock);
			     update stock set qty = qty - (select coalesce(sum(qty), 0) from orders where status = 'ok')
			end;
			create rule backlogger when inserted into orders or updated orders.status
			then insert into backlog
			     (select id from orders o where status = 'new'
			      and qty > (select qty from stock)
			      and id not in (select id from backlog))
			end;
			create rule auditor when inserted into orders
			then insert into audit (select id, 'seen' from inserted orders)
			end`)
		if withPriorities {
			db.MustExec(`create rule priority fulfill before backlogger;
				create rule priority backlogger before auditor`)
		}
		rng := 0
		for i := 0; i < 20; i++ {
			rng = (rng*1103515245 + 12345) % 97
			db.MustExec(fmt.Sprintf(`insert into orders values (%d, %d, 'new')`, i, 5+rng%40))
		}
		dump, err := db.DumpString()
		must(err)
		return db, dump
	}

	strategies := []struct {
		name string
		s    sopr.Strategy
	}{
		{"least-recent", sopr.LeastRecentlyConsidered},
		{"most-recent", sopr.MostRecentlyConsidered},
		{"name-order", sopr.NameOrder},
	}
	for _, withP := range []bool{false, true} {
		label := "no priorities"
		if withP {
			label = "with priorities"
		}
		fmt.Printf("\n%s:\n%-14s %10s %14s %10s\n", label, "strategy", "firings", "considerations", "state")
		var first string
		states := map[string]string{}
		for _, st := range strategies {
			db, dump := build(st.s, withP)
			s := db.Stats()
			if first == "" {
				first = dump
			}
			verdict := "same"
			if dump != first {
				verdict = "DIFFERS"
			}
			states[st.name] = verdict
			fmt.Printf("%-14s %10d %14d %10s\n", st.name, s.RuleFirings, s.RuleConsiderations, verdict)
		}
		benchSink = states
	}
	fmt.Println("\n(the static analyzer conservatively flags the fulfill/backlogger pair;")
	fmt.Println(" this workload happens to be confluent — final states agree — but the")
	fmt.Println(" amount of work differs across strategies until priorities pin the order)")
}
