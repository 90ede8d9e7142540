package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sopr"
	"sopr/internal/catalog"
	"sopr/internal/engine"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
	"sopr/internal/wire"
)

// The traced pass times one operation from the outside in. Nothing inside
// the program is instrumented: each layer's public entry points are called
// from here, on the same generated operation, against databases of the same
// shape and size, and every call is one span.
//
//	root       the operation as the workload submits it (client over TCP, or
//	           sopr.DB when embedded)
//	inproc     the same operation on an in-process SynchronizedDB: root minus
//	           inproc is what the server, client and loopback cost
//	wire       WriteMessage + ReadFrame + Unmarshal of the operation's actual
//	           request and response
//	sqlparse   ParseStatements on the operation's text
//	engine     ExecStatements on the pre-parsed statements of a bare engine,
//	           cut into block / rules / commit by the engine's trace hook
//	           (with the log attached when the workload is durable), or
//	           Query for a read
//	wal        WaitDurable on the commit's LSN; append is the commit phase
//	           with the log attached minus without
//	storage    Begin/Update/Commit on a Store holding a same-shape table
//
// A span's parent is the span that would contain it if the layers were
// instrumented in place; child spans are measured on replicas, so their clock
// intervals do not nest inside the parent's, and a layer's self time is its
// duration minus its children's durations.

// A span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the traced pass began
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index in the span list; -1 for an operation's root
	OpID   int    `json:"op_id"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.spans = append(t.spans, span{name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent, op})
	return len(t.spans) - 1
}

// opTrace is one traced operation's durations by layer.
type opTrace struct {
	kind                   int
	root, inproc           time.Duration
	codec, parse           time.Duration
	block, rules, commit   time.Duration // engine phases (log attached when durable)
	commitNoLog            time.Duration // durable only: commit phase of the engine without a log
	fsync                  time.Duration
	storeBlock, storeRules time.Duration // storage writes made by the block and by rule actions
	storePub               time.Duration // storage publish at commit
	query                  time.Duration // reads: engine.Query
	wireBytes              int
}

// phaseClock cuts ExecStatements into the Figure 1 phases with timestamps
// taken in the engine's trace hook: start → external transition is the
// block; → the last rule considered or fired is rule processing; → commit.
type phaseClock struct {
	tr         *tracer
	parent, op int
	mark       time.Time // start of the phase now running

	block, rules, commit time.Duration
}

func (c *phaseClock) begin(parent, op int) {
	*c = phaseClock{tr: c.tr, parent: parent, op: op, mark: time.Now()}
}

func (c *phaseClock) event(ev engine.TraceEvent) {
	now := time.Now()
	switch ev.Kind {
	case engine.TraceExternalTransition:
		c.block += now.Sub(c.mark)
		c.tr.add("engine.block", c.parent, c.op, c.mark, now)
	case engine.TraceRuleConsidered, engine.TraceRuleFired:
		c.rules += now.Sub(c.mark)
		c.tr.add("engine.rules", c.parent, c.op, c.mark, now)
	case engine.TraceCommit:
		c.commit += now.Sub(c.mark)
		c.tr.add("engine.commit", c.parent, c.op, c.mark, now)
	default:
		return
	}
	c.mark = now
}

// parsedOp is an op's statements after sqlparse, one list per call.
type parsedOp [][]sqlast.Statement

func parseOp(o *op) (parsedOp, error) {
	if o.kind == opWrite {
		// A block's statements reach the engine as one list whether they
		// came in one Exec script or one ExecBatch frame.
		var block []sqlast.Statement
		for _, src := range o.stmts {
			st, err := sqlparse.ParseStatements(src)
			if err != nil {
				return nil, err
			}
			block = append(block, st...)
		}
		return parsedOp{block}, nil
	}
	var p parsedOp
	for _, src := range o.stmts {
		st, err := sqlparse.ParseStatements(src)
		if err != nil {
			return nil, err
		}
		p = append(p, st)
	}
	return p, nil
}

// engineReplica is a bare engine (or a durable database's engine) holding
// the workload's tables, driven with pre-parsed statements.
type engineReplica struct {
	eng   *engine.Engine
	db    *sopr.DB // set when the engine has a log attached
	clock phaseClock
}

func newEngineReplica(w *workload, tr *tracer, dir string) (*engineReplica, error) {
	r := &engineReplica{clock: phaseClock{tr: tr}}
	if dir != "" {
		db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways))
		if err != nil {
			return nil, err
		}
		r.db, r.eng = db, db.Engine()
	} else {
		r.eng = engine.New(engine.Config{})
	}
	for _, s := range w.scripts() {
		if _, err := r.eng.Exec(s); err != nil {
			return nil, err
		}
	}
	r.eng.SetTrace(r.clock.event)
	return r, nil
}

func (r *engineReplica) close() {
	if r.db != nil {
		r.db.Close()
	}
}

// write runs the op's calls through ExecStatements and, with a log, waits
// for each commit to be durable; it returns the time spent in that wait.
func (r *engineReplica) write(p parsedOp, parent, op int) (fsync time.Duration, err error) {
	r.clock.begin(parent, op)
	for _, stmts := range p {
		r.clock.mark = time.Now()
		res, err := r.eng.ExecStatements(stmts)
		if err != nil {
			return 0, err
		}
		if r.db != nil {
			t0 := time.Now()
			if err := r.db.WALLog().WaitDurable(res.LastLSN); err != nil {
				return 0, err
			}
			t1 := time.Now()
			fsync += t1.Sub(t0)
			r.clock.tr.add("wal.fsync_wait", parent, op, t0, t1)
		}
	}
	return fsync, nil
}

// storeReplica is a storage.Store holding tables of the workload's shape and
// size, written directly: the first-write clone and the publish in isolation.
type storeReplica struct {
	st     *storage.Store
	acct   []storage.Handle
	branch []storage.Handle
}

func newStoreReplica(w *workload) (*storeReplica, error) {
	r := &storeReplica{st: storage.New()}
	mk := func(name string, cols ...catalog.Column) error {
		t, err := catalog.NewTable(name, cols)
		if err != nil {
			return err
		}
		return r.st.CreateTable(t)
	}
	col := func(name string, k value.Kind) catalog.Column { return catalog.Column{Name: name, Type: k} }
	if w.cascade() {
		if err := mk("emp", col("name", value.KindString), col("emp_no", value.KindInt),
			col("salary", value.KindFloat), col("dept_no", value.KindInt)); err != nil {
			return nil, err
		}
		return r, mk("dept", col("dept_no", value.KindInt), col("mgr_no", value.KindInt))
	}
	if err := mk("acct", col("id", value.KindInt), col("branch", value.KindInt), col("bal", value.KindInt)); err != nil {
		return nil, err
	}
	if err := mk("branch", col("b", value.KindInt), col("region", value.KindInt), col("total", value.KindInt)); err != nil {
		return nil, err
	}
	if err := r.st.CreateIndex("acct_id", "acct", "id"); err != nil {
		return nil, err
	}
	for b := 0; b < branches; b++ {
		h, err := r.st.Insert("branch", storage.Row{value.NewInt(int64(b)), value.NewInt(int64(b % regions)), value.NewInt(0)})
		if err != nil {
			return nil, err
		}
		r.branch = append(r.branch, h)
	}
	for id := 0; id < w.accounts; id++ {
		h, err := r.st.Insert("acct", storage.Row{value.NewInt(int64(id)), value.NewInt(int64(id % branches)), value.NewInt(initialBal(id))})
		if err != nil {
			return nil, err
		}
		r.acct = append(r.acct, h)
	}
	r.st.PublishSnapshot()
	return r, nil
}

// storeTimes is where a storage transaction's time went, by the engine phase
// that makes the calls: the block's own writes (the first one to a table
// clones it), the writes of rule actions, and the publish at commit.
type storeTimes struct{ block, rules, publish time.Duration }

// txn runs the block's writes and the rule actions' writes between Begin and
// Commit, timing each part.
func (r *storeReplica) txn(tr *tracer, parent, op int, block, rules func() error) (storeTimes, error) {
	var st storeTimes
	t0 := time.Now()
	if err := r.st.Begin(); err != nil {
		return st, err
	}
	if err := block(); err != nil {
		return st, err
	}
	t1 := time.Now()
	if err := rules(); err != nil {
		return st, err
	}
	t2 := time.Now()
	if err := r.st.Commit(); err != nil {
		return st, err
	}
	t3 := time.Now()
	tr.add("storage.write", parent, op, t0, t2)
	tr.add("storage.publish", parent, op, t2, t3)
	return storeTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}, nil
}

// write applies the storage-level effect of o: the rows the block touches
// and the rows its rule firings touch. Values need not track the real ones:
// the cost is the clone, the row swap and the index maintenance.
func (r *storeReplica) write(o *op, tr *tracer, parent, opID int) (storeTimes, error) {
	none := func() error { return nil }
	if o.kind == opWrite {
		var touched [branches]bool
		return r.txn(tr, parent, opID, func() error {
			for i, id := range o.ids {
				if _, _, err := r.st.Update(r.acct[id], map[int]value.Value{2: value.NewInt(o.deltas[i])}); err != nil {
					return err
				}
				touched[id%branches] = true
			}
			return nil
		}, func() error { // roll's action
			for b, t := range touched {
				if t {
					if _, _, err := r.st.Update(r.branch[b], map[int]value.Value{2: value.NewInt(int64(opID))}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	// The cascade: one transaction inserts the chain; in the next the block
	// deletes its head and mgr_cascade's firings delete the rest.
	var hs []storage.Handle
	build, err := r.txn(tr, parent, opID, func() error {
		for e := 0; e <= 2*cascadeDepth; e++ {
			h, err := r.st.Insert("emp", storage.Row{value.NewString("e"), value.NewInt(int64(e)), value.NewFloat(1), value.NewInt(int64(e / 2))})
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		for d := 1; d <= cascadeDepth; d++ {
			h, err := r.st.Insert("dept", storage.Row{value.NewInt(int64(d)), value.NewInt(int64(d))})
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		return nil
	}, none)
	if err != nil {
		return build, err
	}
	del := func(hs []storage.Handle) func() error {
		return func() error {
			for _, h := range hs {
				if _, _, err := r.st.Delete(h); err != nil {
					return err
				}
			}
			return nil
		}
	}
	fall, err := r.txn(tr, parent, opID, del(hs[:1]), del(hs[1:]))
	return storeTimes{build.block + fall.block, fall.rules, build.publish + fall.publish}, err
}

// codec encodes and decodes the op's actual requests and responses the way
// client and server do, and returns the time and the frame bytes.
func codec(o *op, rep reply) (time.Duration, int, error) {
	type msg struct {
		typ byte
		v   any
		out any
	}
	var msgs []msg
	switch {
	case o.kind == opWrite && len(o.stmts) > 1:
		msgs = append(msgs, msg{wire.MsgExecBatch, wire.ExecBatchRequest{Stmts: o.stmts}, new(wire.ExecBatchRequest)})
	case o.kind == opWrite || o.kind == opCascade:
		for _, src := range o.stmts {
			msgs = append(msgs, msg{wire.MsgExec, wire.ExecRequest{Src: src}, new(wire.ExecRequest)})
		}
	default:
		msgs = append(msgs, msg{wire.MsgQuery, wire.QueryRequest{Src: o.stmts[0]}, new(wire.QueryRequest)})
	}
	for _, res := range rep.results {
		resp := wire.ExecResponse{RolledBack: res.RolledBack, RollbackRule: res.RollbackRule, LSN: res.LSN, Epoch: res.Epoch, Synced: res.Synced}
		for _, f := range res.Firings {
			resp.Firings = append(resp.Firings, wire.Firing{Rule: f.Rule, Effect: f.Effect})
		}
		msgs = append(msgs, msg{wire.MsgExecResult, resp, new(wire.ExecResponse)})
	}
	if rep.rows != nil {
		rows, err := wire.RowsOf(rep.rows.Columns, rep.rows.Data)
		if err != nil {
			return 0, 0, err
		}
		msgs = append(msgs, msg{wire.MsgQueryResult, rows, new(wire.Rows)})
	}
	var buf bytes.Buffer
	n := 0
	t0 := time.Now()
	for _, m := range msgs {
		buf.Reset()
		if err := wire.WriteMessage(&buf, m.typ, m.v, 0); err != nil {
			return 0, 0, err
		}
		n += buf.Len()
		_, payload, err := wire.ReadFrame(&buf, 0)
		if err != nil {
			return 0, 0, err
		}
		if err := wire.Unmarshal(payload, m.out); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), n, nil
}

// tracedNext draws from the traced pass's single operation stream. On mixed-rw every
// fourth operation is a write, so storage stays in the picture beside the
// three read classes.
func tracedNext(w *workload, g *gen) op {
	return g.next(!w.readers || g.n%4 == 3)
}

// runTraced is the traced pass: one connection, the seeded stream, first
// untraced for a third of the window (the one-connection baseline the
// tracing overhead and allocation figures are taken against), then traced.
// Spans are kept in memory and written to out (if set) at the end.
func runTraced(w *workload, seed int64, window time.Duration, tmp, out string) (*result, error) {
	dirs := make([]string, 3)
	for i := range dirs {
		var err error
		if dirs[i], err = os.MkdirTemp(tmp, w.name+"-trace-*"); err != nil {
			return nil, err
		}
	}
	a, err := build(w, dirs[0])
	if err != nil {
		return nil, err
	}
	defer a.close()
	var inproc target
	if !w.embedded {
		wb := *w
		wb.embedded = true
		b, err := build(&wb, dirs[1])
		if err != nil {
			return nil, err
		}
		defer b.close()
		inproc = sopr.Synchronized(b.db)
	}
	tr := &tracer{t0: time.Now()}
	bare, err := newEngineReplica(w, tr, "")
	if err != nil {
		return nil, err
	}
	logged := bare
	if w.durable {
		if logged, err = newEngineReplica(w, tr, dirs[2]); err != nil {
			return nil, err
		}
		defer logged.close()
	}
	store, err := newStoreReplica(w)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}, detail: map[string]any{}}
	g := newGen(w, seed, 0)
	root := a.target(0)
	var sh *shadow
	if !w.cascade() {
		sh = newShadow(w.accounts)
	}
	submit := func(o *op) (reply, time.Time, time.Time, bool) {
		res.Attempted++
		t0 := time.Now()
		rep, err := o.do(root, w.accounts)
		t1 := time.Now()
		if err != nil {
			res.fail(err)
			return rep, t0, t1, false
		}
		if o.kind == opWrite {
			sh.apply(o)
		}
		return rep, t0, t1, true
	}

	// Untraced baseline.
	var ms0, ms1 runtime.MemStats
	var plain []time.Duration
	runtime.ReadMemStats(&ms0)
	for end := time.Now().Add(window / 3); time.Now().Before(end); {
		o := tracedNext(w, g)
		if _, t0, t1, ok := submit(&o); ok {
			plain = append(plain, t1.Sub(t0))
		}
	}
	runtime.ReadMemStats(&ms1)

	// Traced.
	before := a.db.Stats()
	srvErrors := func() int64 {
		if a.srv == nil {
			return 0
		}
		return a.srv.Stats().Errors
	}
	srvErrs0 := srvErrors()
	var ops []opTrace
	for end := time.Now().Add(window - window/3); time.Now().Before(end); {
		o := tracedNext(w, g)
		id := len(ops)
		ot := opTrace{kind: o.kind}
		// The in-process twin runs right before the root on odd operations
		// and right after it on even ones, so whatever the previous
		// operation's replicas left behind (garbage, cold caches) is charged
		// to both sides of the subtraction equally.
		var i0, i1 time.Time
		twin := func() error {
			i0 = time.Now()
			_, err := o.do(inproc, w.accounts)
			i1 = time.Now()
			return err
		}
		twinFirst := id%2 == 1
		if inproc != nil && twinFirst {
			if err := twin(); err != nil {
				res.fail(err)
				continue
			}
		}
		rep, t0, t1, ok := submit(&o)
		if !ok {
			continue
		}
		if inproc != nil && !twinFirst {
			if err := twin(); err != nil {
				res.fail(err)
				continue
			}
		}
		ot.root, ot.inproc = t1.Sub(t0), t1.Sub(t0)
		parent := tr.add(rootName(w, &o), -1, id, t0, t1)
		if inproc != nil {
			ot.inproc = i1.Sub(i0)
			parent = tr.add("sopr.SynchronizedDB", parent, id, i0, i1)
		}
		if err := traceLayers(w, &o, rep, &ot, tr, parent, id, bare, logged, store); err != nil {
			res.fail(err)
			continue
		}
		ops = append(ops, ot)
	}
	after := a.db.Stats()
	if len(ops) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the traced window", w.name)
	}
	n := float64(len(ops))
	if sh != nil {
		if err := sh.verify(root, rand.New(rand.NewSource(seed))); err != nil {
			res.fail(err)
		}
	}
	res.Correct = res.Failed == 0

	summarizeTrace(res, w, ops, plain)
	m := res.Metrics
	m["server.errors_per_op"] = metric{float64(srvErrors()-srvErrs0) / n, "count"}
	cons := float64(after.RuleConsiderations - before.RuleConsiderations)
	fir := float64(after.RuleFirings - before.RuleFirings)
	m["rules.considerations_per_op"] = metric{cons / n, "count"}
	m["rules.firings_per_op"] = metric{fir / n, "count"}
	m["rules.useful_ratio"] = metric{ratio(fir, cons), "ratio"}
	m["wal.bytes_per_op"] = metric{float64(after.WALBytes-before.WALBytes) / n, "bytes"}
	m["wal.txns_per_sync"] = metric{ratio(float64(after.GroupedTxns-before.GroupedTxns), float64(after.GroupCommits-before.GroupCommits)), "ratio"}
	m["exec.heap_scans_per_op"] = metric{float64(after.HeapScans-before.HeapScans) / n, "count"}
	m["exec.index_lookups_per_op"] = metric{float64(after.IndexLookups-before.IndexLookups) / n, "count"}
	m["exec.planned_per_op"] = metric{float64(after.PlannedQueries-before.PlannedQueries) / n, "count"}
	m["go.alloc_bytes_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(plain)), "bytes"}
	m["go.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.detail["traced_ops"] = len(ops)
	res.detail["untraced_ops"] = len(plain)
	res.detail["spans"] = len(tr.spans)
	if out != "" {
		if err := writeJSON(out, tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func rootName(w *workload, o *op) string {
	switch {
	case w.embedded:
		return "sopr.DB.Exec"
	case o.kind == opWrite && len(o.stmts) > 1:
		return "client.ExecBatch"
	case o.kind == opWrite:
		return "client.Exec"
	default:
		return "client.Query"
	}
}

// traceLayers repeats o, already answered with rep, on every replica below
// the in-process call (span parent) and records each layer's span and
// duration.
func traceLayers(w *workload, o *op, rep reply, ot *opTrace, tr *tracer, parent, id int,
	bare, logged *engineReplica, store *storeReplica) error {
	if !w.embedded {
		d, n, err := codec(o, rep)
		if err != nil {
			return err
		}
		ot.codec, ot.wireBytes = d, n
		now := time.Now()
		tr.add("wire.codec", tr.spans[parent].Parent, id, now.Add(-d), now)
	}

	t0 := time.Now()
	parsed, err := parseOp(o)
	if err != nil {
		return err
	}
	t1 := time.Now()
	ot.parse = t1.Sub(t0)
	tr.add("sqlparse.parse", parent, id, t0, t1)

	if o.kind != opWrite && o.kind != opCascade {
		sel, ok := parsed[0][0].(*sqlast.Select)
		if !ok {
			return fmt.Errorf("trace: read parsed to %T", parsed[0][0])
		}
		t0 := time.Now()
		if _, err := bare.eng.Query(sel); err != nil {
			return err
		}
		t1 := time.Now()
		ot.query = t1.Sub(t0)
		tr.add("exec.query", parent, id, t0, t1)
		return nil
	}

	if ot.fsync, err = logged.write(parsed, parent, id); err != nil {
		return err
	}
	ot.block, ot.rules, ot.commit = logged.clock.block, logged.clock.rules, logged.clock.commit
	if logged != bare {
		if _, err := bare.write(parsed, parent, id); err != nil {
			return err
		}
		ot.commitNoLog = bare.clock.commit
	}
	st, err := store.write(o, tr, parent, id)
	ot.storeBlock, ot.storeRules, ot.storePub = st.block, st.rules, st.publish
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarizeTrace turns per-operation durations into the per-layer metrics:
// medians for the time metrics, totals for the ratios and the self-time
// split (totals add up; medians do not).
func summarizeTrace(res *result, w *workload, ops []opTrace, plain []time.Duration) {
	med := func(pick func(*opTrace) (time.Duration, bool)) float64 {
		var vs []float64
		for i := range ops {
			if d, ok := pick(&ops[i]); ok {
				vs = append(vs, micros(d))
			}
		}
		return median(vs)
	}
	all := func(f func(*opTrace) time.Duration) func(*opTrace) (time.Duration, bool) {
		return func(o *opTrace) (time.Duration, bool) { return f(o), true }
	}
	writes := func(f func(*opTrace) time.Duration) func(*opTrace) (time.Duration, bool) {
		return func(o *opTrace) (time.Duration, bool) { return f(o), o.kind == opWrite || o.kind == opCascade }
	}
	reads := func(kind int) func(*opTrace) (time.Duration, bool) {
		return func(o *opTrace) (time.Duration, bool) { return o.query, o.kind == kind }
	}
	walAppend := func(o *opTrace) time.Duration {
		if !w.durable || o.commit < o.commitNoLog {
			return 0
		}
		return o.commit - o.commitNoLog
	}
	m := res.Metrics
	m["client.rtt_us"] = metric{med(all(func(o *opTrace) time.Duration { return o.root })), "us"}
	m["transport.self_us"] = metric{med(all(func(o *opTrace) time.Duration { return o.root - o.inproc - o.codec })), "us"}
	m["wire.codec_us"] = metric{med(all(func(o *opTrace) time.Duration { return o.codec })), "us"}
	m["sqlparse.parse_us"] = metric{med(all(func(o *opTrace) time.Duration { return o.parse })), "us"}
	m["engine.block_us"] = metric{med(writes(func(o *opTrace) time.Duration { return o.block })), "us"}
	m["engine.rules_us"] = metric{med(writes(func(o *opTrace) time.Duration { return o.rules })), "us"}
	m["engine.commit_us"] = metric{med(writes(func(o *opTrace) time.Duration { return o.commit })), "us"}
	m["storage.commit_us"] = metric{med(writes(func(o *opTrace) time.Duration { return o.storeBlock + o.storeRules + o.storePub })), "us"}
	m["wal.append_us"] = metric{med(writes(walAppend)), "us"}
	m["wal.fsync_wait_us"] = metric{med(writes(func(o *opTrace) time.Duration { return o.fsync })), "us"}
	m["exec.point_us"] = metric{med(reads(opPoint)), "us"}
	m["exec.scan_us"] = metric{med(reads(opScan)), "us"}
	m["exec.join_us"] = metric{med(reads(opJoin)), "us"}

	var bytesTotal float64
	var tot opTrace
	var appendTotal time.Duration
	for i := range ops {
		o := &ops[i]
		bytesTotal += float64(o.wireBytes)
		tot.root += o.root
		tot.inproc += o.inproc
		tot.codec += o.codec
		tot.parse += o.parse
		tot.block += o.block
		tot.rules += o.rules
		tot.commit += o.commit
		tot.fsync += o.fsync
		tot.storeBlock += o.storeBlock
		tot.storeRules += o.storeRules
		tot.storePub += o.storePub
		tot.query += o.query
		appendTotal += walAppend(o)
	}
	m["wire.bytes_per_op"] = metric{bytesTotal / float64(len(ops)), "bytes"}

	// Self times: storage's writes happen inside the block and rules phases
	// (the first write to a table clones it), its publish and the log append
	// inside the commit phase; the transport is what the root has beyond the
	// in-process call and the codec.
	self := map[string]time.Duration{
		"transport":     tot.root - tot.inproc - tot.codec,
		"wire":          tot.codec,
		"sqlparse":      tot.parse,
		"engine.block":  tot.block - tot.storeBlock,
		"engine.rules":  tot.rules - tot.storeRules,
		"engine.commit": tot.commit - tot.storePub - appendTotal,
		"storage":       tot.storeBlock + tot.storeRules + tot.storePub,
		"wal":           appendTotal + tot.fsync,
		"exec":          tot.query,
	}
	var accounted time.Duration
	share := map[string]float64{}
	for name, d := range self {
		accounted += d
		share[name] = float64(d) / float64(tot.root)
	}
	res.detail["self_share_of_root"] = share
	m["trace.unaccounted_ratio"] = metric{float64(tot.root-accounted) / float64(tot.root), "ratio"}

	sort.Slice(plain, func(i, j int) bool { return plain[i] < plain[j] })
	roots := make([]time.Duration, len(ops))
	for i := range ops {
		roots[i] = ops[i].root
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	m["trace.overhead_ratio"] = metric{float64(percentile(roots, 50))/float64(percentile(plain, 50)) - 1, "ratio"}
	res.detail["untraced_p50_us"] = micros(percentile(plain, 50))
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where /proc does
// not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
