package sopr_test

// Benchmark harness for the experiments of DESIGN.md §5 / EXPERIMENTS.md.
// The paper (SIGMOD 1990) reports no measurement tables — its claims about
// set-oriented rules are qualitative — so each benchmark quantifies one of
// those claims or exercises one design choice:
//
//	B1  BenchmarkSetOriented / BenchmarkInstanceOriented — per-transaction
//	    cost of set-oriented vs row-level rules as batch size k grows.
//	B2  BenchmarkEffectComposition — Definition 2.1 folding cost per op.
//	B3  BenchmarkRuleSelection — selection overhead vs number of rules.
//	B4  BenchmarkCascadeDepth — Example 4.1 recursive cascade vs depth.
//	B5  BenchmarkTransitionTables — materialization + aggregate condition
//	    evaluation vs update-set size.
//	B6  BenchmarkQueryEngine* — substrate sanity (scan/filter/join/agg).
//	B7  BenchmarkTransInfoMaintenance — Figure 1 incremental trans-info vs
//	    naive recomposition of the whole transition history.
//	B8  BenchmarkConstraintOverhead — DML cost with and without compiled
//	    integrity rules.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sopr"
	"sopr/internal/catalog"
	"sopr/internal/exec"
	"sopr/internal/instance"
	"sopr/internal/rules"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
)

// ---------------------------------------------------------------------------
// B1 — set-oriented vs instance-oriented rule execution
// ---------------------------------------------------------------------------

// insertScript builds a k-row INSERT operation block.
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

var batchSizes = []int{1, 16, 256, 2048}

const b1Rule = `
	create rule log when inserted into t
	then insert into audit (select id, v from inserted t)
	end`

func BenchmarkSetOriented(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			db := sopr.Open()
			db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
			db.MustExec(b1Rule)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec(insertScript(i*k, k))
			}
			b.ReportMetric(float64(k), "rows/txn")
		})
	}
}

func BenchmarkInstanceOriented(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			e := instance.New()
			if err := e.Exec(`create table t (id int, v int); create table audit (id int, v int)`); err != nil {
				b.Fatal(err)
			}
			if err := e.Exec(b1Rule); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Exec(insertScript(i*k, k)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k), "rows/txn")
		})
	}
}

// ---------------------------------------------------------------------------
// B2 — transition effect composition (Definition 2.1)
// ---------------------------------------------------------------------------

func BenchmarkEffectComposition(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			// Pre-generate a realistic op stream: 1/3 insert, 1/3 update,
			// 1/3 delete over a growing handle space.
			rng := rand.New(rand.NewSource(1))
			ops := make([]*exec.OpResult, 0, n)
			var live []storage.Handle
			next := storage.Handle(0)
			row := storage.Row{}
			for i := 0; i < n; i++ {
				switch {
				case len(live) == 0 || rng.Intn(3) == 0:
					next++
					live = append(live, next)
					ops = append(ops, &exec.OpResult{Table: "t", Inserted: []storage.Handle{next}})
				case rng.Intn(2) == 0:
					h := live[rng.Intn(len(live))]
					ops = append(ops, &exec.OpResult{Table: "t", Updated: []exec.UpdatedTuple{{Handle: h, OldRow: row, Cols: []int{0}}}})
				default:
					j := rng.Intn(len(live))
					h := live[j]
					live = append(live[:j], live[j+1:]...)
					ops = append(ops, &exec.OpResult{Table: "t", Deleted: []exec.DeletedTuple{{Handle: h, OldRow: row}}})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eff := rules.NewEffect()
				for _, op := range ops {
					eff.AddOp(op)
				}
			}
			b.ReportMetric(float64(n), "ops/effect")
		})
	}
}

// ---------------------------------------------------------------------------
// B3 — rule selection overhead vs number of defined rules
// ---------------------------------------------------------------------------

func BenchmarkRuleSelection(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			db := sopr.Open()
			db.MustExec(`create table t (id int, v int); create table other (id int)`)
			// n-1 rules watch a table that never changes; one matches.
			for i := 0; i < n-1; i++ {
				db.MustExec(fmt.Sprintf(
					`create rule r%04d when inserted into other then delete from other end`, i))
			}
			db.MustExec(`create rule hit when inserted into t then delete from other end`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec(fmt.Sprintf(`insert into t values (%d, 0)`, i))
			}
			b.ReportMetric(float64(n), "rules")
		})
	}
}

// ---------------------------------------------------------------------------
// B4 — Example 4.1 cascade vs management-tree depth
// ---------------------------------------------------------------------------

func BenchmarkCascadeDepth(b *testing.B) {
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
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
				// Chain: dept d managed by the first employee of dept d-1.
				var emps, depts strings.Builder
				emps.WriteString("insert into emp values ('m1', 1, 0, 0)")
				depts.WriteString("insert into dept values ")
				for d := 1; d <= depth; d++ {
					fmt.Fprintf(&depts, "(%d, %d)", d, d)
					if d < depth {
						depts.WriteString(", ")
					}
					emps.WriteString(fmt.Sprintf(", ('m%d', %d, 0, %d)", d+1, d+1, d))
				}
				db.MustExec(emps.String())
				db.MustExec(depts.String())
				b.StartTimer()
				db.MustExec(`delete from emp where emp_no = 1`)
			}
			b.ReportMetric(float64(depth), "depth")
		})
	}
}

// ---------------------------------------------------------------------------
// B5 — transition table materialization vs update-set size
// ---------------------------------------------------------------------------

func BenchmarkTransitionTables(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("updated=%d", k), func(b *testing.B) {
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
			// The condition forces materialization of both old and new
			// updated tables plus two aggregations (Example 3.2 pattern).
			db.MustExec(`
				create rule watch when updated emp.salary
				if (select sum(salary) from new updated emp.salary) <
				   (select sum(salary) from old updated emp.salary)
				then delete from emp where emp_no < 0
				end`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec(`update emp set salary = salary + 1`)
			}
			b.ReportMetric(float64(k), "rows")
		})
	}
}

// ---------------------------------------------------------------------------
// B6 — query engine substrate
// ---------------------------------------------------------------------------

func queryDB(b *testing.B, rows int) *sopr.DB {
	b.Helper()
	db := sopr.Open()
	db.MustExec(`create table emp (name varchar, emp_no int, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int)`)
	var ins strings.Builder
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
	return db
}

func BenchmarkQueryEngineScanFilter(b *testing.B) {
	db := queryDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`select name from emp where salary > 2500 and dept_no = 3`)
	}
}

func BenchmarkQueryEngineJoin(b *testing.B) {
	db := queryDB(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`select e.name from emp e, dept d where e.dept_no = d.dept_no and d.mgr_no = 3`)
	}
}

func BenchmarkQueryEngineAggregate(b *testing.B) {
	db := queryDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`select dept_no, avg(salary), count(*) from emp group by dept_no having count(*) > 10`)
	}
}

// ---------------------------------------------------------------------------
// B7 — Figure 1 incremental trans-info vs naive recomposition
// ---------------------------------------------------------------------------

func makeTransitionStream(n int) []*rules.Effect {
	rng := rand.New(rand.NewSource(2))
	var live []storage.Handle
	next := storage.Handle(0)
	row := storage.Row{}
	effs := make([]*rules.Effect, n)
	for i := range effs {
		e := rules.NewEffect()
		for k := 0; k < 8; k++ {
			switch {
			case len(live) == 0 || rng.Intn(3) == 0:
				next++
				live = append(live, next)
				e.AddOp(&exec.OpResult{Table: "t", Inserted: []storage.Handle{next}})
			case rng.Intn(2) == 0:
				h := live[rng.Intn(len(live))]
				e.AddOp(&exec.OpResult{Table: "t", Updated: []exec.UpdatedTuple{{Handle: h, OldRow: row, Cols: []int{0}}}})
			default:
				j := rng.Intn(len(live))
				h := live[j]
				live = append(live[:j], live[j+1:]...)
				e.AddOp(&exec.OpResult{Table: "t", Deleted: []exec.DeletedTuple{{Handle: h, OldRow: row}}})
			}
		}
		effs[i] = e
	}
	return effs
}

func BenchmarkTransInfoMaintenance(b *testing.B) {
	for _, n := range []int{10, 100, 400} {
		stream := makeTransitionStream(n)
		b.Run(fmt.Sprintf("incremental/transitions=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Figure 1: one composite maintained by Apply after every
				// transition; the composite is read ("triggered?") each
				// step, as the algorithm does.
				acc := rules.NewEffect()
				for _, e := range stream {
					acc.Apply(e)
					_ = acc.IsEmpty()
				}
			}
		})
		b.Run(fmt.Sprintf("naive/transitions=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Naive alternative: keep the raw history; recompose the
				// whole prefix each time the composite is needed.
				for j := 1; j <= len(stream); j++ {
					acc := rules.NewEffect()
					for _, e := range stream[:j] {
						acc.Apply(e)
					}
					_ = acc.IsEmpty()
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B8 — constraint enforcement overhead
// ---------------------------------------------------------------------------

func BenchmarkConstraintOverhead(b *testing.B) {
	setup := func(withConstraints bool) *sopr.DB {
		db := sopr.Open()
		db.MustExec(`
			create table dept (dept_no int, mgr_no int);
			create table emp (name varchar, emp_no int, salary float, dept_no int)`)
		db.MustExec(`insert into dept values (1,1), (2,2), (3,3), (4,4)`)
		if withConstraints {
			for _, c := range []sopr.Constraint{
				sopr.ForeignKey("fk", "emp", "dept_no", "dept", "dept_no", sopr.CascadeDelete),
				sopr.Check("pay", "emp", "salary >= 0"),
			} {
				if err := db.AddConstraint(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		return db
	}
	b.Run("unconstrained", func(b *testing.B) {
		db := setup(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.MustExec(fmt.Sprintf(`insert into emp values ('e', %d, 100, %d)`, i, i%4+1))
		}
	})
	b.Run("constrained", func(b *testing.B) {
		db := setup(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.MustExec(fmt.Sprintf(`insert into emp values ('e', %d, 100, %d)`, i, i%4+1))
		}
	})
}

// ---------------------------------------------------------------------------
// B9 — ablation: planned hash join vs naive nested loops
// ---------------------------------------------------------------------------

func BenchmarkJoinAblation(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		st := storage.New()
		mkTable := func(name string) {
			tab, err := catalog.NewTable(name, []catalog.Column{
				{Name: "k", Type: value.KindInt},
				{Name: "v", Type: value.KindInt},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.CreateTable(tab); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := st.Insert(name, storage.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))}); err != nil {
					b.Fatal(err)
				}
			}
		}
		mkTable("l")
		mkTable("r")
		stmt, err := sqlparse.ParseStatement(`select count(*) from l, r where l.k = r.k and l.v > 2`)
		if err != nil {
			b.Fatal(err)
		}
		sel := stmt.(*sqlast.Select)
		for _, mode := range []string{"planned", "naive"} {
			b.Run(fmt.Sprintf("%s/rows=%d", mode, n), func(b *testing.B) {
				env := &exec.Env{Store: st, Naive: mode == "naive"}
				for i := 0; i < b.N; i++ {
					if _, err := env.Query(sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// B11 — prepared statements: parse-once vs parse-per-Exec
// ---------------------------------------------------------------------------

func BenchmarkPreparedVsParsed(b *testing.B) {
	setup := func() *sopr.DB {
		db := sopr.Open()
		db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
		db.MustExec(b1Rule)
		return db
	}
	const script = `insert into t values (1, 1), (2, 2), (3, 3), (4, 4); delete from t`
	b.Run("parsed", func(b *testing.B) {
		db := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.MustExec(script)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		db := setup()
		stmt, err := db.Prepare(script)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
