// Package sopr is a relational database engine with the set-oriented
// production rules facility of Widom & Finkelstein, "Set-Oriented
// Production Rules in Relational Database Systems" (SIGMOD 1990).
//
// A DB executes SQL scripts. Consecutive data manipulation statements form
// one operation block — one externally-generated transition, hence one
// transaction: production rules are considered and executed just before the
// transaction commits, exactly per the paper's Section 4 semantics and
// Figure 1 algorithm.
//
//	db := sopr.Open()
//	db.MustExec(`create table emp (name varchar, emp_no int, salary float, dept_no int)`)
//	db.MustExec(`create table dept (dept_no int, mgr_no int)`)
//	db.MustExec(`
//	    create rule cascade when deleted from dept
//	    then delete from emp where dept_no in (select dept_no from deleted dept)
//	    end`)
//	db.MustExec(`delete from dept where dept_no = 2`) // employees cascade
//
// Rule definitions support the paper's full syntax: disjunctive transition
// predicates (INSERTED INTO t / DELETED FROM t / UPDATED t[.c]), SQL
// conditions over the current state and the transition tables (inserted t,
// deleted t, old/new updated t[.c]), operation-block actions, ROLLBACK
// actions, priorities (CREATE RULE PRIORITY a BEFORE b), plus the paper's
// Section 5 extensions: select triggering, external procedure actions
// (THEN CALL proc), and PROCESS RULES triggering points.
package sopr

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sopr/internal/engine"
	"sopr/internal/exec"
	"sopr/internal/rules"
	"sopr/internal/sqlparse"
	"sopr/internal/value"
	"sopr/internal/wal"
)

// Strategy selects the tie-break among equal-priority triggered rules
// (Section 4.4 of the paper).
type Strategy int

// Rule-selection strategies.
const (
	// LeastRecentlyConsidered is the default: deterministic round-robin
	// among equal-priority rules.
	LeastRecentlyConsidered Strategy = iota
	// MostRecentlyConsidered yields depth-first cascades.
	MostRecentlyConsidered
	// NameOrder is a fully static order.
	NameOrder
)

// TriggerScope selects which composite transition a rule is evaluated
// against (paper Section 4.2 and footnote 8).
type TriggerScope int

// Trigger scopes.
const (
	// SinceAction is the paper's semantics: the composite effect since the
	// rule's action last executed (or transaction start).
	SinceAction TriggerScope = iota
	// SinceConsidered restarts the window whenever the rule is considered.
	SinceConsidered
	// SinceTriggered restarts the window at each transition that by itself
	// triggers the rule (the WF89b semantics).
	SinceTriggered
)

// config gathers everything Open and OpenDurable can be configured with:
// the engine behavior plus the durability settings (see durability.go).
type config struct {
	eng engine.Config
	dur durConfig
}

// Option configures a DB at Open or OpenDurable.
type Option func(*config)

// WithMaxRuleTransitions caps rule-generated transitions per transaction
// (the footnote 7 runaway guard; default 10000).
func WithMaxRuleTransitions(n int) Option {
	return func(c *config) { c.eng.MaxRuleTransitions = n }
}

// WithStrategy sets the rule-selection tie-break.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.eng.Strategy = rules.Strategy(s) }
}

// WithDefaultScope sets the triggering scope given to new rules.
func WithDefaultScope(s TriggerScope) Option {
	return func(c *config) { c.eng.DefaultScope = rules.TriggerScope(s) }
}

// WithSelectTriggers enables the Section 5.1 extension: SELECT statements
// join operation blocks, effects gain an S component, and SELECTED
// transition predicates become available.
func WithSelectTriggers() Option {
	return func(c *config) { c.eng.EnableSelectTriggers = true }
}

// WithRuleTimeout bounds wall-clock rule-processing time per transaction
// (the footnote 7 timeout mechanism); exceeding it rolls the transaction
// back with an error.
func WithRuleTimeout(d time.Duration) Option {
	return func(c *config) { c.eng.RuleTimeout = d }
}

// DB is a database instance with the production rules facility. It is not
// safe for concurrent use; the paper's model of system execution is a
// single stream of operation blocks (Section 2.1).
type DB struct {
	eng *engine.Engine
	// walLog and recovery are set by OpenDurable (durability.go); walLog is
	// nil for a plain in-memory Open.
	walLog    *wal.Log
	recovery  RecoveryInfo
	recovered bool
}

// Open creates an empty in-memory database. For a database that survives
// restarts, use OpenDurable.
func Open(opts ...Option) *DB {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return &DB{eng: engine.New(cfg.eng)}
}

// ParseError reports a script syntax error with its 1-based position; Exec
// and Query return it (wrapped in the error chain) whenever the script fails
// to parse, so shells and servers can point at the offending line.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("syntax error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// wrapErr converts internal syntax errors to the public ParseError.
func wrapErr(err error) error {
	var se *sqlparse.SyntaxError
	if errors.As(err, &se) {
		return &ParseError{Line: se.Line, Col: se.Col, Msg: se.Msg}
	}
	return err
}

// Rows is a query result: column names and data rows. Cells are nil (SQL
// NULL), int64, float64, string, or bool.
type Rows struct {
	Columns []string
	Data    [][]any
	table   string // pre-rendered table form
}

// String renders the rows as an aligned text table.
func (r *Rows) String() string { return r.table }

// NewRows builds a Rows from raw columns and cells (nil, int64, float64,
// string, or bool) and renders its table form. The network client uses it to
// rebuild results received over the wire; the output matches what the
// engine produces for the same data.
func NewRows(columns []string, data [][]any) *Rows {
	r := &Rows{Columns: columns, Data: data}
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(data))
	for ri, row := range data {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := cellString(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	r.table = b.String()
	return r
}

// cellString renders one raw cell the way the engine's table printer does.
func cellString(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return value.NewInt(x).String()
	case float64:
		return value.NewFloat(x).String()
	case string:
		return x // strings print unquoted in tables
	case bool:
		return value.NewBool(x).String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

// wrapResult converts an executor result into public Rows. The output is
// a full snapshot, sharing no memory with live storage: each Data row is
// freshly allocated here and each cell is an immutable scalar copied out
// of a value.Value (the executor itself already builds result rows fresh
// per query — see exec.evalPlainQuery — and storage updates swap whole
// row slices rather than mutating them in place). A later or concurrent
// Exec therefore can never change Rows a caller is holding; the
// TestRowsSnapshotImmutable regression test pins this.
func wrapResult(res *exec.Result) *Rows {
	if res == nil {
		return nil
	}
	out := &Rows{Columns: res.Columns, table: res.String()}
	for _, row := range res.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			switch v.Kind() {
			case value.KindNull:
				vals[i] = nil
			case value.KindInt:
				vals[i] = v.Int()
			case value.KindFloat:
				vals[i] = v.Float()
			case value.KindString:
				vals[i] = v.Str()
			case value.KindBool:
				vals[i] = v.Bool()
			}
		}
		out.Data = append(out.Data, vals)
	}
	return out
}

// Firing records one rule action execution.
type Firing struct {
	Rule   string
	Effect string // summary of the created transition, e.g. "[I:0 D:2 U:0 S:0]"
}

// Result summarizes the transactions run by one Exec call.
type Result struct {
	// RolledBack is set when a rule with a ROLLBACK action fired; the
	// transaction's changes were undone (Section 4.2).
	RolledBack   bool
	RollbackRule string
	// Firings lists rule action executions, in order.
	Firings []Firing
	// Results holds the result sets of SELECT statements, in order.
	Results []*Rows
	// LSN is the durable log position after this call on a durable
	// database (0 in-memory or over a non-durable server). Replication
	// clients carry it as a read-your-writes token: a replica read with
	// this MinLSN sees at least the state this call produced.
	LSN uint64
	// Epoch is the serving node's promotion epoch (0 before any failover,
	// and always 0 on a plain local database).
	Epoch uint64
	// Synced reports that the configured number of synchronous followers
	// acknowledged this commit before it was acknowledged to the caller
	// (false in async replication mode or after a degraded sync wait).
	Synced bool
}

// Exec parses and executes a script: DDL, rule definitions, queries, and
// operation blocks. Consecutive DML statements form one transaction. On a
// durable database, Exec returns only after the transaction's commit
// record is fsynced (per the fsync policy): an acknowledged commit is
// durable.
func (db *DB) Exec(src string) (*Result, error) {
	return db.finish(db.execNoWait(src))
}

// ExecBatch executes a batch of data-manipulation statements as ONE
// operation block — one externally-generated transition, one transaction,
// one commit record, one durable fsync — regardless of how many
// statements the batch carries. This is the paper's set-oriented
// submission path: rule processing is decoupled from statement boundaries
// (Section 5.3), so the batch behaves exactly like the same statements
// submitted consecutively in a single Exec script. SELECTs evaluate
// inside the block and observe its preceding writes; definition
// statements are rejected (they execute between transactions — use Exec).
func (db *DB) ExecBatch(stmts []string) (*Result, error) {
	return db.finish(db.execBatchNoWait(stmts))
}

// execNoWait runs the script without waiting for commit durability. The
// returned lsn is the newest commit record the script appended (0 if
// nothing committed, or in-memory).
func (db *DB) execNoWait(src string) (*Result, uint64, error) {
	txn, err := db.eng.Exec(src)
	res := wrapTxn(txn)
	var lsn uint64
	if txn != nil {
		lsn = txn.LastLSN
	}
	return res, lsn, wrapErr(err)
}

// execBatchNoWait is execNoWait for a batch block.
func (db *DB) execBatchNoWait(stmts []string) (*Result, uint64, error) {
	txn, err := db.eng.ExecBatch(stmts)
	res := wrapTxn(txn)
	var lsn uint64
	if txn != nil {
		lsn = txn.LastLSN
	}
	return res, lsn, wrapErr(err)
}

// finish completes an exec after the engine pass — and, crucially, after
// the caller released any write lock: it parks on the write-ahead log's
// group commit for the transaction's record (concurrent committers share
// one fsync there) and stamps the read-your-writes LSN token. A
// durability failure outranks nothing: if the engine pass itself errored,
// that error is returned and the sticky log error will surface on the
// next write.
func (db *DB) finish(res *Result, lsn uint64, err error) (*Result, error) {
	if werr := db.waitDurable(lsn); werr != nil && err == nil {
		err = werr
	}
	if res != nil && db.walLog != nil {
		res.LSN = db.CurrentLSN()
	}
	return res, err
}

// waitDurable parks until the given commit record is fsynced — the group
// commit point. A no-op in-memory, when nothing committed, or under the
// interval/never fsync policies (their durability window is the caller's
// explicit choice).
func (db *DB) waitDurable(lsn uint64) error {
	if db.walLog == nil || lsn == 0 {
		return nil
	}
	return db.walLog.WaitDurable(lsn)
}

func wrapTxn(txn *engine.TxnResult) *Result {
	if txn == nil {
		return nil
	}
	res := &Result{RolledBack: txn.RolledBack, RollbackRule: txn.RollbackRule}
	for _, f := range txn.Firings {
		res.Firings = append(res.Firings, Firing{Rule: f.Rule, Effect: f.Effect})
	}
	for _, q := range txn.Queries {
		res.Results = append(res.Results, wrapResult(q))
	}
	return res
}

// MustExec is Exec that panics on error — for examples and tests.
func (db *DB) MustExec(src string) *Result {
	res, err := db.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("sopr: %v", err))
	}
	return res
}

// Query evaluates a single SELECT statement outside any transaction. An
// EXPLAIN statement is accepted too: it returns the executor's chosen
// plan (access paths, join order, cost estimates) as a one-column result
// without executing the statement.
func (db *DB) Query(src string) (*Rows, error) {
	res, err := db.eng.QueryString(src)
	if err != nil {
		return nil, wrapErr(err)
	}
	return wrapResult(res), nil
}

// MustQuery is Query that panics on error.
func (db *DB) MustQuery(src string) *Rows {
	r, err := db.Query(src)
	if err != nil {
		panic(fmt.Sprintf("sopr: %v", err))
	}
	return r
}

// ProcContext is passed to external procedures (Section 5.2). DML executed
// through it becomes part of the rule-generated transition; queries see the
// triggering rule's transition tables.
type ProcContext struct {
	inner *engine.ProcContext
}

// RuleName reports the rule whose action invoked the procedure.
func (c *ProcContext) RuleName() string { return c.inner.RuleName }

// Exec runs data manipulation operations inside the rule's transition.
func (c *ProcContext) Exec(src string) error { return c.inner.Exec(src) }

// Query evaluates a SELECT with the rule's transition tables in scope.
func (c *ProcContext) Query(src string) (*Rows, error) {
	res, err := c.inner.Query(src)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// ProcFunc is an external procedure callable from rule actions via
// `THEN CALL name`.
type ProcFunc func(*ProcContext) error

// RegisterProcedure installs an external procedure. It must be registered
// before any rule referencing it is defined.
func (db *DB) RegisterProcedure(name string, fn ProcFunc) {
	db.eng.RegisterProcedure(name, func(inner *engine.ProcContext) error {
		return fn(&ProcContext{inner: inner})
	})
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds, mirroring the steps of the paper's Figure 1 algorithm.
const (
	TraceExternalTransition TraceKind = iota
	TraceRuleConsidered
	TraceRuleFired
	TraceRollback
	TraceCommit
)

// TraceEvent describes one step of rule processing.
type TraceEvent struct {
	Kind     TraceKind
	Rule     string
	CondHeld bool
	Effect   string
}

// OnTrace installs a trace hook receiving rule-processing events; pass nil
// to remove it. The swap is atomic, so installing or removing a hook can
// never be observed half-done; events are emitted only from the write
// path (Exec and friends) — queries never trace.
func (db *DB) OnTrace(fn func(TraceEvent)) {
	if fn == nil {
		db.eng.SetTrace(nil)
		return
	}
	db.eng.SetTrace(func(ev engine.TraceEvent) {
		fn(TraceEvent{
			Kind:     TraceKind(ev.Kind),
			Rule:     ev.Rule,
			CondHeld: ev.CondHeld,
			Effect:   ev.Effect,
		})
	})
}

// Stats are cumulative engine counters (see engine.Stats for each one).
type Stats = engine.Stats

// Stats returns a snapshot of the database's cumulative counters.
func (db *DB) Stats() Stats { return db.eng.Stats() }

// Rules returns the defined rule names in definition order.
func (db *DB) Rules() []string { return db.eng.Rules() }

// Tables returns the defined table names, sorted. Reads the published
// snapshot's catalog, so it is safe concurrent with a writer.
func (db *DB) Tables() []string { return db.eng.Snapshot().Catalog().Names() }

// SetRuleScope overrides one rule's triggering scope (footnote 8).
func (db *DB) SetRuleScope(rule string, scope TriggerScope) error {
	return db.eng.SetRuleScope(rule, rules.TriggerScope(scope))
}
