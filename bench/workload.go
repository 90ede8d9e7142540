package main

import (
	"fmt"
	"math/rand"
	"strings"

	"sopr"
)

// target is what a workload's operations are submitted to: a TCP client
// connection or an embedded database. client.Client, sopr.DB and
// sopr.SynchronizedDB all satisfy it.
type target interface {
	Exec(src string) (*sopr.Result, error)
	ExecBatch(stmts []string) (*sopr.Result, error)
	Query(src string) (*sopr.Rows, error)
}

// A workload is one named set of inputs. The acct family (accounts > 0)
// shares one schema and differs in table size, transport, durability and how
// many statements form an operation block; rules-cascade is the paper's
// Example 4.1.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	embedded bool // drive sopr.DB in-process; otherwise soprd's server over loopback TCP
	durable  bool // sopr.OpenDurable with fsync=always in a real directory
	accounts int  // rows in acct; 0 selects the rules-cascade schema
	batch    int  // statements per operation block (1 = client.Exec, >1 = client.ExecBatch)
	clients  int  // closed-loop connections
	readers  bool // the closed-loop clients issue the read mix, not writes
	pacedHz  int  // an extra open-loop writer connection at this rate (0 = none)
}

const (
	branches       = 50 // rows in branch; acct.branch = id % branches
	regions        = 5  // branch.region = b % regions
	cascadeDepth   = 16 // management-chain levels in rules-cascade
	cascadeFirings = cascadeDepth + 1
	bystanders     = 200 // defined-but-never-triggered rules in rules-cascade
)

var workloads = []*workload{
	{name: "oltp-small", accounts: 100, batch: 1, clients: 2,
		why: "single-row update txns on 100 rows over TCP: fixed per-txn cost (client, wire, server, sqlparse, engine) dominates"},
	{name: "oltp-large", accounts: 10000, batch: 1, clients: 2,
		why: "the same txns on 10000 rows: storage's first-write whole-table clone and publish dominate"},
	{name: "oltp-durable", accounts: 100, batch: 1, clients: 2, durable: true,
		why: "oltp-small on a durable database with fsync=always: wal append and fsync wait dominate"},
	{name: "batch-set", accounts: 1000, batch: 64, clients: 2,
		why: "64 updates per operation block, one set-oriented rule firing: per-statement costs amortise over the set"},
	{name: "rules-cascade", embedded: true, clients: 1,
		why: "Example 4.1 cascade, 16 levels, 200 bystander rules, embedded: engine's Figure 1 loop, rules and exec subqueries"},
	{name: "mixed-rw", accounts: 10000, batch: 1, clients: 1, readers: true, pacedHz: 40,
		why: "point, scan and join reads on 10000 rows beside a writer paced at 40 txn/s: exec and snapshot reads beside commits"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) cascade() bool { return w.accounts == 0 }

// conns is how many connections the workload opens: the closed-loop clients
// plus the paced writer's.
func (w *workload) conns() int {
	if w.pacedHz > 0 {
		return w.clients + 1
	}
	return w.clients
}

// initialBal is the balance every run loads account id with.
func initialBal(id int) int64 { return 1000 + int64(id%100) }

// schema returns the definition scripts, executed in order before loading.
func (w *workload) schema() []string {
	if w.cascade() {
		defs := []string{
			`create table emp (name varchar, emp_no int, salary float, dept_no int);
			 create table dept (dept_no int, mgr_no int);
			 create table idle (x int)`,
			`create rule mgr_cascade when deleted from emp
			 then delete from emp where dept_no in
			      (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
			      delete from dept where mgr_no in (select emp_no from deleted emp)
			 end`,
		}
		var b strings.Builder
		for i := 0; i < bystanders; i++ {
			fmt.Fprintf(&b, "create rule idle_%d when inserted into idle then delete from idle where x = %d end;\n", i, i)
		}
		return append(defs, b.String())
	}
	return []string{
		`create table acct (id int, branch int, bal int);
		 create table branch (b int, region int, total int);
		 create index acct_id on acct (id)`,
		`create rule roll when updated acct.bal
		 then update branch set total = total + 1
		      where b in (select branch from new updated acct.bal)
		 end`,
	}
}

// scripts is everything set-up executes: definitions, then the load.
func (w *workload) scripts() []string { return append(w.schema(), w.load()...) }

// load returns the scripts that fill the tables, one transaction each.
func (w *workload) load() []string {
	if w.cascade() {
		return nil // every operation builds its own chain
	}
	var out []string
	var b strings.Builder
	b.WriteString("insert into branch values ")
	for i := 0; i < branches; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, 0)", i, i%regions)
	}
	out = append(out, b.String())
	const chunk = 5000
	for lo := 0; lo < w.accounts; lo += chunk {
		b.Reset()
		b.WriteString("insert into acct values ")
		for id := lo; id < lo+chunk && id < w.accounts; id++ {
			if id > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", id, id%branches, initialBal(id))
		}
		out = append(out, b.String())
	}
	return out
}

// Operation kinds.
const (
	opWrite   = iota // one operation block of acct updates (Exec or ExecBatch)
	opPoint          // select by indexed id
	opScan           // filtered count over acct.bal
	opJoin           // acct ⋈ branch group by region
	opCascade        // rebuild the management chain, then delete its head
)

// An op is one generated operation: the statements the program under test
// receives and what the generator knows about their effect.
type op struct {
	kind   int
	stmts  []string // opWrite: the block's statements; reads: one SELECT; opCascade: rebuild script, delete
	ids    []int    // opWrite: account updated by each statement
	deltas []int64  // opWrite: amount added by each statement
	arg    int64    // opPoint: the id; opScan: the threshold
}

// A gen produces one connection's operation stream from the run seed and the
// connection's number; the same pair always yields the same stream.
type gen struct {
	w   *workload
	rng *rand.Rand
	n   int // operations generated so far
}

func newGen(w *workload, seed int64, conn int) *gen {
	return &gen{w: w, rng: rand.New(rand.NewSource(seed*1000003 + int64(conn)))}
}

func (g *gen) write() op {
	o := op{kind: opWrite}
	for i := 0; i < g.w.batch; i++ {
		id, d := g.rng.Intn(g.w.accounts), int64(1+g.rng.Intn(9))
		o.stmts = append(o.stmts, fmt.Sprintf("update acct set bal = bal + %d where id = %d", d, id))
		o.ids = append(o.ids, id)
		o.deltas = append(o.deltas, d)
	}
	return o
}

// read cycles point → scan → join so each class is a fixed third of the
// reader's operations.
func (g *gen) read() op {
	switch g.n % 3 {
	case 0:
		id := g.rng.Intn(g.w.accounts)
		return op{kind: opPoint, arg: int64(id),
			stmts: []string{fmt.Sprintf("select id, branch, bal from acct where id = %d", id)}}
	case 1:
		x := 1000 + int64(g.rng.Intn(100))
		return op{kind: opScan, arg: x,
			stmts: []string{fmt.Sprintf("select count(*) from acct where bal < %d", x)}}
	default:
		return op{kind: opJoin, stmts: []string{joinQuery}}
	}
}

const joinQuery = "select region, count(*), sum(bal) from acct, branch where acct.branch = branch.b group by region order by region"

func (g *gen) cascade() op {
	var emps, depts strings.Builder
	fmt.Fprintf(&emps, "insert into emp values ('m1', 1, %d, 0)", 50000+g.rng.Intn(50000))
	depts.WriteString("insert into dept values ")
	for d := 1; d <= cascadeDepth; d++ {
		if d > 1 {
			depts.WriteString(", ")
		}
		fmt.Fprintf(&depts, "(%d, %d)", d, d)
		// Department d holds the next level's manager and one more employee.
		fmt.Fprintf(&emps, ", ('m%d', %d, %d, %d), ('e%d', %d, %d, %d)",
			d+1, d+1, 50000+g.rng.Intn(50000), d, d, 1000+d, 20000+g.rng.Intn(30000), d)
	}
	return op{kind: opCascade, stmts: []string{
		emps.String() + "; " + depts.String(),
		"delete from emp where emp_no = 1",
	}}
}

// next returns the connection's next operation. writer selects the write
// stream on a workload whose closed-loop clients read.
func (g *gen) next(writer bool) op {
	defer func() { g.n++ }()
	switch {
	case g.w.cascade():
		return g.cascade()
	case g.w.readers && !writer:
		return g.read()
	default:
		return g.write()
	}
}

// A reply is what the program under test answered to one op: one Result per
// Exec or ExecBatch call, or the Rows of a read.
type reply struct {
	results []*sopr.Result
	rows    *sopr.Rows
}

// do submits o to t and checks the reply against what the generator knows;
// a non-nil error is a failed operation.
func (o *op) do(t target, accounts int) (reply, error) {
	var rep reply
	switch o.kind {
	case opWrite:
		var res *sopr.Result
		var err error
		if len(o.stmts) == 1 {
			res, err = t.Exec(o.stmts[0])
		} else {
			res, err = t.ExecBatch(o.stmts)
		}
		if err != nil {
			return rep, err
		}
		rep.results = append(rep.results, res)
		// One set-oriented firing per operation block, never one per row.
		if res.RolledBack || len(res.Firings) != 1 || res.Firings[0].Rule != "roll" {
			return rep, fmt.Errorf("write: want one firing of roll, got %+v (rolled back %v)", res.Firings, res.RolledBack)
		}
		return rep, nil
	case opCascade:
		for _, src := range o.stmts {
			res, err := t.Exec(src)
			if err != nil {
				return rep, err
			}
			rep.results = append(rep.results, res)
		}
		if n := len(rep.results[1].Firings); n != cascadeFirings {
			return rep, fmt.Errorf("cascade: want %d firings, got %d", cascadeFirings, n)
		}
		return rep, nil
	}
	rows, err := t.Query(o.stmts[0])
	if err != nil {
		return rep, err
	}
	rep.rows = rows
	// Reads race the paced writer, so only what no write can change is
	// checked here; exact answers are compared against the shadow once the
	// writer has stopped (see shadow.verify).
	switch o.kind {
	case opPoint:
		if len(rows.Data) != 1 || rows.Data[0][0] != o.arg || rows.Data[0][1] != o.arg%branches {
			return rep, fmt.Errorf("point %d: got %v", o.arg, rows.Data)
		}
	case opScan:
		if len(rows.Data) != 1 {
			return rep, fmt.Errorf("scan: got %d rows", len(rows.Data))
		}
		if n, ok := rows.Data[0][0].(int64); !ok || n < 0 || n > int64(accounts) {
			return rep, fmt.Errorf("scan: count %v out of range", rows.Data[0][0])
		}
	case opJoin:
		if len(rows.Data) != regions {
			return rep, fmt.Errorf("join: got %d groups", len(rows.Data))
		}
		for r, row := range rows.Data {
			if row[0] != int64(r) || row[1] != int64(accounts/regions) {
				return rep, fmt.Errorf("join: group %d is %v", r, row)
			}
		}
	}
	return rep, nil
}

// shadow is the serial model of the acct family's tables, kept by the
// generator: every acknowledged write is applied to it, and after the window
// the database must agree with it. Additions commute, so the order in which
// concurrent connections' writes committed does not matter.
type shadow struct {
	bal    []int64
	totals [branches]int64
	blocks int64 // acknowledged operation blocks
}

func newShadow(accounts int) *shadow {
	s := &shadow{bal: make([]int64, accounts)}
	for id := range s.bal {
		s.bal[id] = initialBal(id)
	}
	return s
}

// apply records one acknowledged write block: the balances move, and roll
// adds one to every branch the block touched — once per block, however many
// of its rows share the branch.
func (s *shadow) apply(o *op) {
	var touched [branches]bool
	for i, id := range o.ids {
		s.bal[id] += o.deltas[i]
		touched[id%branches] = true
	}
	for b, t := range touched {
		if t {
			s.totals[b]++
		}
	}
	s.blocks++
}

// merge folds another connection's shadow into s.
func (s *shadow) merge(o *shadow) {
	for id := range s.bal {
		s.bal[id] += o.bal[id] - initialBal(id)
	}
	for b := range s.totals {
		s.totals[b] += o.totals[b]
	}
	s.blocks += o.blocks
}

// verify compares the database behind t with the shadow: per-branch row
// counts and balance sums, branch totals maintained by roll, and the three
// read classes at sampled arguments.
func (s *shadow) verify(t target, rng *rand.Rand) error {
	rows, err := t.Query("select branch, count(*), sum(bal) from acct group by branch order by branch")
	if err != nil {
		return err
	}
	var cnt, sum [branches]int64
	for id, b := range s.bal {
		cnt[id%branches]++
		sum[id%branches] += b
	}
	if len(rows.Data) != branches {
		return fmt.Errorf("verify: %d branches in acct, want %d", len(rows.Data), branches)
	}
	for b, row := range rows.Data {
		if row[0] != int64(b) || row[1] != cnt[b] || row[2] != sum[b] {
			return fmt.Errorf("verify: acct branch %d is %v, shadow has count %d sum %d", b, row, cnt[b], sum[b])
		}
	}
	rows, err = t.Query("select b, total from branch order by b")
	if err != nil {
		return err
	}
	if len(rows.Data) != branches {
		return fmt.Errorf("verify: %d rows in branch, want %d", len(rows.Data), branches)
	}
	for b, row := range rows.Data {
		if row[0] != int64(b) || row[1] != s.totals[b] {
			return fmt.Errorf("verify: branch %d is %v, shadow total %d", b, row, s.totals[b])
		}
	}
	// The read mix, at one sampled point each, against the model's answer.
	id := rng.Intn(len(s.bal))
	rows, err = t.Query(fmt.Sprintf("select id, branch, bal from acct where id = %d", id))
	if err != nil {
		return err
	}
	if len(rows.Data) != 1 || rows.Data[0][2] != s.bal[id] {
		return fmt.Errorf("verify: point %d is %v, shadow bal %d", id, rows.Data, s.bal[id])
	}
	x := 1000 + int64(rng.Intn(100))
	var below int64
	for _, b := range s.bal {
		if b < x {
			below++
		}
	}
	rows, err = t.Query(fmt.Sprintf("select count(*) from acct where bal < %d", x))
	if err != nil {
		return err
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != below {
		return fmt.Errorf("verify: scan < %d is %v, shadow %d", x, rows.Data, below)
	}
	rows, err = t.Query(joinQuery)
	if err != nil {
		return err
	}
	var rcnt, rsum [regions]int64
	for id, b := range s.bal {
		rcnt[id%branches%regions]++
		rsum[id%branches%regions] += b
	}
	if len(rows.Data) != regions {
		return fmt.Errorf("verify: join has %d groups", len(rows.Data))
	}
	for r, row := range rows.Data {
		if row[0] != int64(r) || row[1] != rcnt[r] || row[2] != rsum[r] {
			return fmt.Errorf("verify: join region %d is %v, shadow count %d sum %d", r, row, rcnt[r], rsum[r])
		}
	}
	return nil
}
