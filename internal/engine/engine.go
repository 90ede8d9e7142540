// Package engine ties the substrates together into the system of the
// paper: it executes externally-generated operation blocks as transactions,
// maintains per-rule composite transition information, and runs the rule
// execution algorithm of Figure 1 — including rollback actions, the
// runaway-rule guard suggested by footnote 7, the rule triggering points of
// Section 5.3, select-triggered rules of Section 5.1, and external
// procedure actions of Section 5.2.
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sopr/internal/catalog"
	"sopr/internal/exec"
	"sopr/internal/rules"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/wal"
)

// Config controls engine behavior.
type Config struct {
	// MaxRuleTransitions caps the number of rule-generated transitions per
	// transaction — the run-time guard against divergent rule sets that
	// footnote 7 of the paper suggests. Exceeding the cap rolls the
	// transaction back with ErrRunaway. Zero means the default (10000).
	MaxRuleTransitions int
	// Strategy is the tie-break among equal-priority triggered rules
	// (Section 4.4 discusses the design space).
	Strategy rules.Strategy
	// SelectHook, when non-nil, overrides Strategy: among the triggered
	// rules maximal in the priority partial order it is handed the
	// candidate names in ascending order and returns the chosen one (see
	// rules.Selector.Choose). The differential test harness uses it to
	// drive the engine and the reference oracle through identical
	// selection sequences — any order it produces is legal under the
	// paper's Section 4.4 freedom.
	SelectHook func(candidates []string) string
	// DefaultScope is the triggering scope given to newly defined rules
	// (the paper's semantics by default; footnote 8 alternatives
	// available).
	DefaultScope rules.TriggerScope
	// EnableSelectTriggers turns on the Section 5.1 extension: select
	// operations join operation blocks, transition effects gain an S
	// component, and `selected t` predicates become meaningful.
	EnableSelectTriggers bool
	// RuleTimeout, when positive, bounds wall-clock time spent in rule
	// processing per transaction — the "run-time detection using a timeout
	// mechanism" of footnote 7. Exceeding it rolls the transaction back.
	RuleTimeout time.Duration
	// Naive turns every query optimization off for every evaluation the
	// engine performs (queries, conditions, actions): heap scans and
	// FROM-order nested loops — the engine-wide form of exec.Env.Naive.
	// The differential harness's reference twin; semantics are identical
	// either way.
	Naive bool
}

const defaultMaxRuleTransitions = 10000

// ErrRunaway is returned (wrapped) when a transaction exceeds
// MaxRuleTransitions; the transaction is rolled back.
var ErrRunaway = fmt.Errorf("engine: rule processing exceeded the transition limit (possible infinite loop; see footnote 7)")

// ErrTimeout is returned (wrapped) when a transaction exceeds RuleTimeout;
// the transaction is rolled back (footnote 7's run-time timeout detection).
var ErrTimeout = fmt.Errorf("engine: rule processing exceeded the time limit (possible infinite loop; see footnote 7)")

// ProcContext is handed to external procedures (Section 5.2). It gives the
// procedure access to the database and to the triggering rule's transition
// tables; data manipulation performed through it is folded into the
// rule-generated transition like any other action operation.
type ProcContext struct {
	RuleName string
	env      *exec.Env
	eff      *rules.Effect
}

// Exec runs one or more data manipulation operations (a fragment of the
// action's operation block).
func (c *ProcContext) Exec(src string) error {
	stmts, err := sqlparse.ParseStatements(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		switch st.(type) {
		case *sqlast.Insert, *sqlast.Delete, *sqlast.Update:
			res, err := c.env.ExecOp(st)
			if err != nil {
				return err
			}
			c.eff.AddOp(res)
		default:
			return fmt.Errorf("engine: external procedures may only perform data manipulation, got %T", st)
		}
	}
	return nil
}

// Query evaluates a SELECT with the rule's transition tables in scope.
func (c *ProcContext) Query(src string) (*exec.Result, error) {
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlast.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires a SELECT, got %T", st)
	}
	return c.env.Query(sel)
}

// ProcFunc is an external procedure registered with the engine.
type ProcFunc func(*ProcContext) error

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceExternalTransition TraceKind = iota // an external operation block executed
	TraceRuleConsidered                      // a triggered rule's condition was evaluated
	TraceRuleFired                           // a rule's action executed, creating a transition
	TraceRollback                            // a rollback action fired
	TraceCommit                              // the transaction committed
)

// TraceEvent describes one step of rule processing; used by tests, the
// shell, and the examples to surface the Section 4 semantics.
type TraceEvent struct {
	Kind      TraceKind
	Rule      string // rule involved (empty for external transitions)
	CondHeld  bool   // for TraceRuleConsidered
	Effect    string // effect summary for transitions
	Transient int    // rule-generated transition count so far
}

// Firing records one rule action execution within a transaction.
type Firing struct {
	Rule   string
	Effect string
}

// TxnResult summarizes one committed or rolled-back transaction.
type TxnResult struct {
	RolledBack   bool
	RollbackRule string
	Firings      []Firing
	// Queries holds the results of SELECT statements executed in the
	// transaction's operation block, in order.
	Queries []*exec.Result
	// LastLSN is the log position of the newest commit record this
	// execution appended (0 without a WAL, or when nothing committed).
	// The record is written but not necessarily fsynced yet: the owner
	// must pass it to wal.Log.WaitDurable before acknowledging the work,
	// so that concurrent committers share one group-commit fsync.
	LastLSN uint64
}

// Engine is the database system with the production rules facility.
type Engine struct {
	store *storage.Store
	// rules is the current rule set. Rule DDL swaps in a new immutable
	// value (which publish shares with readers); run holds the Figure 1
	// state of each rule, indexed by ordinal in rules.
	rules *rules.Set
	run   []runState
	// bound holds each rule's condition and action statements bound
	// against boundCat (exec.Bind), made on the rule's first
	// consideration and reused by later ones until rule DDL replaces the
	// rule set or DDL replaces the catalog. Bindings hold no row data; the
	// cache is used only on the write path.
	bound    []boundRule
	boundSet *rules.Set
	boundCat *catalog.Catalog
	selector rules.Selector
	procs    map[string]ProcFunc
	cfg      Config
	seq      int64
	stats    Stats
	// touched lists the rules with non-nil trans-info; transition stamps
	// each transition applyToAll composes; tables is its scratch space.
	touched    []int
	transition int64
	tables     []string
	// wal, when attached, receives every committed transaction's net
	// effect and every definition statement (see durability.go). walEff
	// accumulates the current transaction's composed effect for the log.
	wal    *wal.Log
	walEff *rules.Effect
	// traceFn, when set, receives rule-processing events. It is swapped
	// atomically (SetTrace) so installation can never be observed
	// half-done by a concurrent lock-free reader; events themselves are
	// emitted only from the exclusive (write) path — queries perform no
	// transition and therefore never trace.
	traceFn atomic.Pointer[func(TraceEvent)]
	// snap is the engine's published read state (see snapshot.go): queries,
	// dumps, stats and LSN reads load it atomically and touch nothing else,
	// so they run with zero locking concurrent with the write path.
	snap atomic.Pointer[snapState]
	// planCounters is shared planner telemetry (atomics; advanced by both
	// the write path and concurrent lock-free readers).
	planCounters exec.PlanCounters
}

// boundRule is one rule's condition and action operation block, bound.
type boundRule struct {
	cond  *exec.Bound
	block []*exec.Bound
}

// ruleBinding returns rule i's bound condition and action, binding them on
// first use against the current catalog.
func (e *Engine) ruleBinding(i int) *boundRule {
	cat := e.store.Catalog()
	if e.boundSet != e.rules || e.boundCat != cat {
		e.bound, e.boundSet, e.boundCat = make([]boundRule, e.rules.Len()), e.rules, cat
	}
	br := &e.bound[i]
	if br.cond == nil {
		r := e.rules.Rule(i)
		br.cond = exec.BindCondition(cat, r.Condition)
		br.block = make([]*exec.Bound, len(r.Action.Block))
		for j, op := range r.Action.Block {
			br.block[j] = exec.Bind(cat, op)
		}
	}
	return br
}

// runState is one rule's state in the rule-processing run of Figure 1.
type runState struct {
	// trans is the rule's composite transition information
	// (init-trans-info / modify-trans-info), reset once per transaction;
	// nil means empty.
	trans *rules.Effect
	// lastConsidered is the sequence number stamped when the rule was
	// defined or last chosen for consideration (recency tie-breaks).
	lastConsidered int64
	// composed stamps the last transition composed into trans (a rule
	// watching two of its tables composes it once); rejected, the one
	// after which the condition was found false (Section 4.2: the rule is
	// reconsidered only after a new transition).
	composed, rejected int64
}

// New returns an engine with an empty database.
func New(cfg Config) *Engine {
	if cfg.MaxRuleTransitions == 0 {
		cfg.MaxRuleTransitions = defaultMaxRuleTransitions
	}
	e := &Engine{
		store:    storage.New(),
		rules:    &rules.Set{},
		selector: rules.Selector{Strategy: cfg.Strategy, Choose: cfg.SelectHook},
		procs:    make(map[string]ProcFunc),
		cfg:      cfg,
	}
	e.publish()
	return e
}

// Store exposes the underlying storage engine (read-mostly helpers for
// tests, tools and benchmarks).
func (e *Engine) Store() *storage.Store { return e.store }

// RegisterProcedure installs an external procedure callable from rule
// actions via `THEN CALL name` (Section 5.2).
func (e *Engine) RegisterProcedure(name string, fn ProcFunc) {
	e.procs[name] = fn
}

// Rules returns the defined rule names in definition order, from the
// published rule set (lock-free).
func (e *Engine) Rules() []string { return e.snap.Load().rules.Names() }

// Rule returns a defined rule by name, from the published rule set.
func (e *Engine) Rule(name string) (*rules.Rule, bool) {
	set := e.snap.Load().rules
	i, ok := set.Ordinal(name)
	if !ok {
		return nil, false
	}
	return set.Rule(i), true
}

// SetRuleScope overrides one rule's triggering scope (footnote 8) by
// executing `ALTER RULE name SCOPE SINCE ...`, so the change is logged and
// replicated like any other rule definition.
func (e *Engine) SetRuleScope(name string, scope rules.TriggerScope) error {
	return e.execDefinition(&sqlast.AlterRule{Name: name, Scope: sqlast.RuleScope(scope)})
}

// SetTrace installs (or, with nil, removes) the trace hook. The swap is a
// single atomic store: a concurrent reader of the hook sees either the
// old handler or the new one, never a partial write.
func (e *Engine) SetTrace(fn func(TraceEvent)) {
	if fn == nil {
		e.traceFn.Store(nil)
		return
	}
	e.traceFn.Store(&fn)
}

// trace emits ev to the installed handler, first rendering eff (when
// non-nil) into ev.Effect. Without a handler nothing is rendered.
func (e *Engine) trace(ev TraceEvent, eff *rules.Effect) {
	if fn := e.traceFn.Load(); fn != nil {
		if eff != nil {
			ev.Effect = eff.String()
		}
		(*fn)(ev)
	}
}

// ---------------------------------------------------------------------------
// Statement dispatch
// ---------------------------------------------------------------------------

// isBlockOp reports whether a statement belongs in an operation block.
func (e *Engine) isBlockOp(st sqlast.Statement) bool {
	switch st.(type) {
	case *sqlast.Insert, *sqlast.Delete, *sqlast.Update:
		return true
	case *sqlast.ProcessRules:
		return true
	case *sqlast.Select:
		// With Section 5.1 enabled, select operations join operation
		// blocks; otherwise they are evaluated standalone.
		return e.cfg.EnableSelectTriggers
	default:
		return false
	}
}

// Exec parses and executes a script. Consecutive data manipulation
// statements form a single operation block — one externally-generated
// transition, hence one transaction (Section 4): rules are considered and
// executed just before that transaction commits. Definition statements
// (CREATE TABLE, CREATE RULE, priorities, ...) execute immediately between
// transactions. Without the Section 5.1 option, a SELECT also ends the
// current block (it is evaluated standalone, between transactions); with
// EnableSelectTriggers, SELECTs join blocks and contribute S components.
func (e *Engine) Exec(src string) (*TxnResult, error) {
	stmts, err := sqlparse.ParseStatements(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStatements(stmts)
}

// ExecStatements executes parsed statements (see Exec). The returned
// TxnResult is the merge of all transactions run by the script.
func (e *Engine) ExecStatements(stmts []sqlast.Statement) (*TxnResult, error) {
	total := &TxnResult{}
	var block []sqlast.Statement
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		res, err := e.RunTransaction(block)
		block = nil
		if res != nil {
			total.Firings = append(total.Firings, res.Firings...)
			total.Queries = append(total.Queries, res.Queries...)
			if res.RolledBack {
				total.RolledBack = true
				total.RollbackRule = res.RollbackRule
			}
			if res.LastLSN > total.LastLSN {
				total.LastLSN = res.LastLSN
			}
		}
		return err
	}
	for _, st := range stmts {
		if e.isBlockOp(st) {
			block = append(block, st)
			continue
		}
		if err := flush(); err != nil {
			return total, err
		}
		switch s := st.(type) {
		case *sqlast.Select:
			res, err := e.Query(s)
			if err != nil {
				return total, err
			}
			total.Queries = append(total.Queries, res)
		case *sqlast.Explain:
			res, err := e.Explain(s)
			if err != nil {
				return total, err
			}
			total.Queries = append(total.Queries, res)
		default:
			if err := e.execDefinition(st); err != nil {
				return total, err
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// ExecBatch executes a batch of statement sources as ONE operation block
// — one externally-generated transition, one transaction, one commit
// record — regardless of how the statements are split across the batch
// entries. This is the set-oriented submission path: Section 5.3's
// PROCESS RULES semantics already decouple rule processing from statement
// boundaries, so the rules see the batch's composed net effect exactly as
// if the statements had arrived as one consecutive block. SELECTs are
// evaluated inside the block (they observe the batch's preceding writes,
// and with EnableSelectTriggers contribute S components); PROCESS RULES
// statements are triggering points as usual. Definition statements
// execute between transactions and are therefore rejected here — submit
// them through Exec.
func (e *Engine) ExecBatch(srcs []string) (*TxnResult, error) {
	var ops []sqlast.Statement
	for i, src := range srcs {
		stmts, err := sqlparse.ParseStatements(src)
		if err != nil {
			return nil, fmt.Errorf("batch statement %d: %w", i+1, err)
		}
		for _, st := range stmts {
			switch st.(type) {
			case *sqlast.Insert, *sqlast.Delete, *sqlast.Update, *sqlast.Select, *sqlast.ProcessRules:
				ops = append(ops, st)
			default:
				return nil, fmt.Errorf("engine: batch statement %d: %T is a definition; definitions execute between transactions and cannot join a batch block", i+1, st)
			}
		}
	}
	if len(ops) == 0 {
		return &TxnResult{}, nil
	}
	return e.RunTransaction(ops)
}

// Query evaluates a SELECT against the currently published committed
// snapshot, outside any rule context. The whole path is lock-free: one
// atomic pointer load fetches the snapshot, evaluation runs a fresh Env
// over its frozen structures, and the only shared words touched are the
// atomic access-path counters — so any number of Query calls run
// concurrently with each other and with the write path, each seeing a
// consistent committed state (sopr.SynchronizedDB relies on exactly this
// property).
func (e *Engine) Query(sel *sqlast.Select) (*exec.Result, error) {
	env := &exec.Env{Store: e.snap.Load().store, Naive: e.cfg.Naive, Counters: &e.planCounters}
	return env.Query(sel)
}

// Explain renders the plan the executor would choose for the wrapped
// statement, against the published committed snapshot, without executing
// it.
func (e *Engine) Explain(ex *sqlast.Explain) (*exec.Result, error) {
	env := &exec.Env{Store: e.snap.Load().store, Naive: e.cfg.Naive}
	return env.Explain(ex.Stmt)
}

// newEnv returns a fresh evaluation environment carrying the engine's
// Naive flag (and, inside rule processing, the rule's transition tables).
// Every evaluation the engine performs goes through here so that
// Config.Naive covers conditions and actions, not just top-level queries.
func (e *Engine) newEnv(trans *rules.TransSource) *exec.Env {
	env := &exec.Env{Store: e.store, Naive: e.cfg.Naive, Counters: &e.planCounters}
	if trans != nil {
		env.Trans = trans
	}
	return env
}

// QueryString parses and evaluates a single SELECT (or EXPLAIN, whose
// plan rendering is served through the same read-only path).
func (e *Engine) QueryString(src string) (*exec.Result, error) {
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqlast.Select:
		return e.Query(s)
	case *sqlast.Explain:
		return e.Explain(s)
	default:
		return nil, fmt.Errorf("engine: QueryString requires a SELECT or EXPLAIN, got %T", st)
	}
}

// execDefinition handles DDL and rule-management statements, logging each
// successful one to the write-ahead log when attached. Replay applies
// logged definitions through applyDefinition, which never logs.
func (e *Engine) execDefinition(st sqlast.Statement) error {
	if err := e.applyDefinition(st); err != nil {
		return err
	}
	if e.wal != nil {
		if err := e.logDefinition(st); err != nil {
			return err
		}
	}
	// Definitions change what readers see (schema, indexes, rule text, the
	// durable LSN), so each one republishes the engine snapshot.
	e.publish()
	return nil
}

func (e *Engine) applyDefinition(st sqlast.Statement) error {
	switch s := st.(type) {
	case *sqlast.CreateTable:
		tab, err := exec.CreateTableSchema(s)
		if err != nil {
			return err
		}
		return e.store.CreateTable(tab)
	case *sqlast.DropTable:
		// RESTRICT: a rule naming a dropped table breaks or changes meaning.
		for i := 0; i < e.rules.Len(); i++ {
			if r := e.rules.Rule(i); r.Names(s.Name) {
				return fmt.Errorf("engine: cannot drop table %q: rule %q names it", s.Name, r.Name)
			}
		}
		return e.store.DropTable(s.Name)
	case *sqlast.CreateIndex:
		return e.store.CreateIndex(s.Name, s.Table, s.Column)
	case *sqlast.DropIndex:
		return e.store.DropIndex(s.Name)
	case *sqlast.CreateRule:
		r, err := e.newRule(s)
		if err != nil {
			return err
		}
		return e.install(e.rules.Define(r))
	case *sqlast.CreateRulePriority:
		return e.install(e.rules.AddPriority(s.Before, s.After))
	case *sqlast.DropRule:
		return e.install(e.rules.Drop(s.Name))
	case *sqlast.SetRuleActive:
		return e.install(e.rules.Update(s.Name, func(r *rules.Rule) { r.Active = s.Active }))
	case *sqlast.AlterRule:
		return e.install(e.rules.Update(s.Name, func(r *rules.Rule) { r.Scope = rules.TriggerScope(s.Scope) }))
	default:
		return fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// install makes set the engine's rule set after a successful rule DDL
// (passing err through otherwise). A rule keeps its recency stamp across
// other rules' DDL (followed by name); a new rule is stamped now. The last
// transaction's trans-info is dropped with the old ordinals.
func (e *Engine) install(set *rules.Set, err error) error {
	if err != nil {
		return err
	}
	run := make([]runState, set.Len())
	for i := range run {
		if j, ok := e.rules.Ordinal(set.Rule(i).Name); ok {
			run[i].lastConsidered = e.run[j].lastConsidered
		} else {
			e.seq++
			run[i].lastConsidered = e.seq
		}
	}
	e.rules, e.run, e.touched = set, run, e.touched[:0]
	return nil
}

// newRule validates a CREATE RULE statement and builds the rule.
func (e *Engine) newRule(cr *sqlast.CreateRule) (*rules.Rule, error) {
	if err := rules.ValidateRule(cr, e.store.Catalog()); err != nil {
		return nil, err
	}
	if cr.Action.Call != "" {
		if _, ok := e.procs[cr.Action.Call]; !ok {
			return nil, fmt.Errorf("engine: rule %q calls unregistered procedure %q", cr.Name, cr.Action.Call)
		}
	}
	for _, p := range cr.Preds {
		if p.Op == sqlast.PredSelected && !e.cfg.EnableSelectTriggers {
			return nil, fmt.Errorf("engine: rule %q uses SELECTED predicates but select triggering is not enabled", cr.Name)
		}
	}
	r := &rules.Rule{
		Name:      cr.Name,
		Preds:     cr.Preds,
		Condition: cr.Condition,
		Action:    cr.Action,
		Active:    true,
		Scope:     rules.TriggerScope(cr.Scope),
	}
	if cr.Scope == sqlast.ScopeDefault {
		r.Scope = e.cfg.DefaultScope
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Transactions and the Figure 1 algorithm
// ---------------------------------------------------------------------------

// selCollector accumulates the S component (Section 5.1) during query
// evaluation.
type selCollector struct {
	eff *rules.Effect
}

func (c *selCollector) TupleSelected(table string, h storage.Handle) {
	c.eff.AddSelected(table, []storage.Handle{h})
}

// RunTransaction executes one externally-generated operation block (with
// optional PROCESS RULES triggering points) as a transaction: the block's
// transition is computed, each rule's transition information is
// initialized, and rules are repeatedly selected, considered, and executed
// until none are eligible (Figure 1). The transaction then commits — or
// rolls back on a rollback action, an error, or the runaway guard.
func (e *Engine) RunTransaction(ops []sqlast.Statement) (*TxnResult, error) {
	if err := e.store.Begin(); err != nil {
		return nil, err
	}
	res := &TxnResult{}
	if e.wal != nil {
		e.walEff = rules.NewEffect()
	}

	fail := func(err error) (*TxnResult, error) {
		e.store.Rollback()
		e.walEff = nil
		e.stats.RolledBack++
		// The data snapshot is unchanged (rollback restored the published
		// state), but the counters moved; republish so Stats readers see
		// the rollback.
		e.publish()
		return res, err
	}

	for _, i := range e.touched { // a new Figure 1 run starts empty
		e.run[i].trans = nil
	}
	e.touched = e.touched[:0]
	// Split the block at PROCESS RULES triggering points (Section 5.3).
	segments := splitAtTriggeringPoints(ops)
	transitions := 0
	var deadline time.Time
	if e.cfg.RuleTimeout > 0 {
		deadline = time.Now().Add(e.cfg.RuleTimeout)
	}
	for _, seg := range segments {
		blockEff, err := e.execExternalSegment(seg, res)
		if err != nil {
			return fail(err)
		}
		e.stats.ExternalTransitions++
		e.trace(TraceEvent{Kind: TraceExternalTransition}, blockEff)
		if e.walEff != nil {
			e.walEff.Apply(blockEff)
		}
		// External segments compose like rule transitions; composing into
		// empty trans-info is the first segment's init-trans-info.
		e.applyToAll(-1, blockEff)
		done, err := e.processRules(res, &transitions, deadline)
		if err != nil {
			return fail(err)
		}
		if done { // a rollback action fired
			return fail(nil)
		}
	}

	// Log before commit: the net effect is appended (and its LSN recorded
	// in the result) before the in-memory commit, so the log can run
	// behind the database only by unacknowledged work. A log failure
	// rolls the transaction back. Durability is deferred: the owner calls
	// WaitDurable(LastLSN) before acknowledging, outside its write lock,
	// which is where concurrent committers share one group-commit fsync.
	if e.wal != nil {
		lsn, err := e.logCommit(e.walEff)
		if err != nil {
			return fail(err)
		}
		res.LastLSN = lsn
	}
	if err := e.store.Commit(); err != nil {
		return fail(err)
	}
	e.walEff = nil
	e.stats.Committed++
	// store.Commit published the new storage snapshot; republish the
	// engine state so readers pick it up together with the new counters
	// and LSN.
	e.publish()
	e.trace(TraceEvent{Kind: TraceCommit}, nil)
	return res, nil
}

func splitAtTriggeringPoints(ops []sqlast.Statement) [][]sqlast.Statement {
	var segs [][]sqlast.Statement
	var cur []sqlast.Statement
	for _, op := range ops {
		if _, ok := op.(*sqlast.ProcessRules); ok {
			segs = append(segs, cur)
			cur = nil
			continue
		}
		cur = append(cur, op)
	}
	segs = append(segs, cur)
	return segs
}

// execExternalSegment runs the operations of one external transition and
// returns its composed effect.
func (e *Engine) execExternalSegment(ops []sqlast.Statement, res *TxnResult) (*rules.Effect, error) {
	eff := rules.NewEffect()
	env := e.newEnv(nil)
	if e.cfg.EnableSelectTriggers {
		env.Observer = &selCollector{eff: eff}
	}
	for _, op := range ops {
		if sel, ok := op.(*sqlast.Select); ok {
			qres, err := env.Query(sel)
			if err != nil {
				return nil, err
			}
			res.Queries = append(res.Queries, qres)
			continue
		}
		opRes, err := env.ExecOp(op)
		if err != nil {
			return nil, err
		}
		eff.AddOp(opRes)
	}
	return eff, nil
}

// processRules is the rule-processing loop of Figure 1 (select-eligible-rule
// plus action execution), run at a triggering point or before commit. It
// returns done=true if a rollback action fired (the result records it; the
// caller rolls the store back).
func (e *Engine) processRules(res *TxnResult, transitions *int, deadline time.Time) (done bool, err error) {
	for {
		i, err := e.selectTriggeredRule()
		if err != nil {
			return false, err
		}
		if i < 0 {
			return false, nil
		}
		r, st, br := e.rules.Rule(i), &e.run[i], e.ruleBinding(i)
		e.seq++
		st.lastConsidered = e.seq

		// Evaluate the condition with the rule's transition tables.
		env := e.newEnv(&rules.TransSource{Store: e.store, Effect: st.trans})
		condHeld, err := env.EvalCondition(br.cond)
		if err != nil {
			return false, fmt.Errorf("engine: rule %q condition: %w", r.Name, err)
		}
		e.stats.RuleConsiderations++
		e.trace(TraceEvent{Kind: TraceRuleConsidered, Rule: r.Name, CondHeld: condHeld}, st.trans)

		if r.Scope == rules.ScopeSinceConsidered && !condHeld {
			// Footnote 8 alternative: the evaluation window restarts at
			// every consideration.
			st.trans = rules.NewEffect()
		}
		if !condHeld {
			st.rejected = e.transition
			continue
		}

		if r.Action.Rollback {
			e.trace(TraceEvent{Kind: TraceRollback, Rule: r.Name}, nil)
			res.RolledBack = true
			res.RollbackRule = r.Name
			return true, nil
		}

		*transitions++
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false, fmt.Errorf("%w (rule %q, limit %v)", ErrTimeout, r.Name, e.cfg.RuleTimeout)
		}
		if *transitions > e.cfg.MaxRuleTransitions {
			return false, fmt.Errorf("%w (rule %q, limit %d)", ErrRunaway, r.Name, e.cfg.MaxRuleTransitions)
		}

		actEff, delivered, err := e.execRuleAction(r, br, st.trans)
		if err != nil {
			return false, fmt.Errorf("engine: rule %q action: %w", r.Name, err)
		}
		res.Queries = append(res.Queries, delivered...)
		e.stats.RuleFirings++
		f := Firing{Rule: r.Name, Effect: actEff.String()}
		res.Firings = append(res.Firings, f)
		e.trace(TraceEvent{Kind: TraceRuleFired, Rule: r.Name, Effect: f.Effect, Transient: *transitions}, nil)

		// Figure 1: the executing rule gets fresh transition information
		// (init-trans-info); every other rule composes (modify-trans-info).
		st.trans = actEff.CloneFiltered(r.Keep)
		e.stats.RuleVisits++
		e.applyToAll(i, actEff)
		if e.walEff != nil {
			e.walEff.Apply(actEff)
		}
	}
}

// selectTriggeredRule returns the ordinal of a triggered, not-yet-rejected
// rule chosen by the selector, or -1. Only touched rules, all active, can
// be triggered; the selector does not depend on candidate order.
func (e *Engine) selectTriggeredRule() (int, error) {
	var triggered []rules.Candidate
	cat := e.store.Catalog()
	for _, i := range e.touched {
		st := &e.run[i]
		if st.rejected == e.transition {
			continue
		}
		e.stats.RuleVisits++
		ok, err := rules.EffectSatisfies(st.trans, e.rules.Rule(i).Preds, cat)
		if err != nil {
			return -1, err
		}
		if ok {
			triggered = append(triggered, rules.Candidate{Ordinal: i, LastConsidered: st.lastConsidered})
		}
	}
	return e.selector.Select(e.rules, triggered), nil
}

// execRuleAction runs a rule's action (operation block or external
// procedure) against its transition information and returns the effect of
// the created transition plus any result sets its SELECT operations
// retrieved (the Section 5.1 "data retrieval in rules' actions" extension:
// results are delivered to the client with the transaction result).
func (e *Engine) execRuleAction(r *rules.Rule, br *boundRule, trans *rules.Effect) (*rules.Effect, []*exec.Result, error) {
	eff := rules.NewEffect()
	env := e.newEnv(&rules.TransSource{Store: e.store, Effect: trans})
	if e.cfg.EnableSelectTriggers {
		env.Observer = &selCollector{eff: eff}
	}
	if r.Action.Call != "" {
		proc, ok := e.procs[r.Action.Call]
		if !ok {
			return nil, nil, fmt.Errorf("procedure %q is not registered", r.Action.Call)
		}
		ctx := &ProcContext{RuleName: r.Name, env: env, eff: eff}
		if err := proc(ctx); err != nil {
			return nil, nil, err
		}
		return eff, nil, nil
	}
	var delivered []*exec.Result
	for j, op := range r.Action.Block {
		if _, ok := op.(*sqlast.Select); ok {
			qres, err := env.QueryBound(br.block[j])
			if err != nil {
				return nil, nil, err
			}
			delivered = append(delivered, qres)
			continue
		}
		opRes, err := env.ExecBound(br.block[j])
		if err != nil {
			return nil, nil, err
		}
		eff.AddOp(opRes)
	}
	return eff, delivered, nil
}

// applyToAll folds a new transition's effect into the trans-info of every
// rule it can alter (Set.Watchers of its tables) except exclude, the rule
// that generated it (-1 for none); composing into empty is the clone. The
// footnote 8 since-triggered scope restarts a rule's window at any
// transition that by itself satisfies the rule's predicate.
func (e *Engine) applyToAll(exclude int, eff *rules.Effect) {
	e.transition++
	e.tables = eff.Tables(e.tables[:0])
	for _, table := range e.tables {
		for _, i := range e.rules.Watchers(table) {
			r, st := e.rules.Rule(i), &e.run[i]
			if i == exclude || st.composed == e.transition {
				continue
			}
			st.composed = e.transition
			e.stats.RuleVisits++
			restart := st.trans == nil
			if restart {
				e.touched = append(e.touched, i)
			} else if r.Scope == rules.ScopeSinceTriggered {
				restart, _ = rules.EffectSatisfies(eff, r.Preds, e.store.Catalog())
			}
			if restart {
				st.trans = eff.CloneFiltered(r.Keep)
			} else {
				st.trans.ApplyFiltered(eff, r.Keep)
			}
		}
	}
}
