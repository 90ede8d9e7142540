// Package sqlast defines the abstract syntax tree for the SQL dialect of
// the paper: the data manipulation operations of Section 2.1 (insert,
// delete, update, select with arbitrarily complex predicates and embedded
// selects), the rule definition language of Section 3 (CREATE RULE with
// transition predicates, conditions, actions, and transition-table
// references), and the priority declarations of Section 4.4.
//
// Every node renders back to SQL via String; the printer output re-parses
// to an equal tree (round-trip property, tested in sqlparse).
package sqlast

import (
	"sopr/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	String() string
}

// Expr is any scalar or predicate expression.
type Expr interface {
	exprNode()
	String() string
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// ColumnRef names a column, optionally qualified by a table name or alias
// (e.g. e1.dept_no).
type ColumnRef struct {
	Qualifier string // "" if unqualified
	Column    string
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators, in precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

// Binary is a binary operation L op R.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNeg UnaryOp = iota // arithmetic -
	OpNot                // logical NOT
)

// Unary is a unary operation.
type Unary struct {
	Op UnaryOp
	X  Expr
}

// IsNull is `X IS [NOT] NULL`.
type IsNull struct {
	X      Expr
	Negate bool
}

// InList is `X [NOT] IN (e1, e2, ...)`.
type InList struct {
	X      Expr
	List   []Expr
	Negate bool
}

// InSelect is `X [NOT] IN (select ...)`.
type InSelect struct {
	X      Expr
	Sub    *Select
	Negate bool
}

// Exists is `[NOT] EXISTS (select ...)`.
type Exists struct {
	Sub    *Select
	Negate bool
}

// ScalarSub is an embedded select used as a scalar value, e.g.
// `(select sum(salary) from emp)`.
type ScalarSub struct {
	Sub *Select
}

// Quant is the quantifier of a quantified subquery comparison.
type Quant int

// Quantifiers.
const (
	QuantAny Quant = iota // ANY / SOME
	QuantAll
)

// SubCompare is `X op ANY|ALL (select ...)`.
type SubCompare struct {
	X     Expr
	Op    BinOp // comparison operator only
	Quant Quant
	Sub   *Select
}

// Between is `X [NOT] BETWEEN Lo AND Hi`.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// Like is `X [NOT] LIKE pattern`.
type Like struct {
	X, Pattern Expr
	Negate     bool
}

// FuncCall is a function application. Aggregates (count, sum, avg, min,
// max) are FuncCalls resolved by the executor; Star marks count(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // count(*)
	Distinct bool // count(distinct x), sum(distinct x), ...
}

// When is one WHEN/THEN arm of a CASE expression.
type When struct {
	Cond   Expr // condition (searched CASE) or comparison value (simple CASE)
	Result Expr
}

// Case is `CASE [operand] WHEN ... THEN ... [ELSE ...] END`. With an
// Operand it is a simple CASE (operand = when-value comparisons); without,
// a searched CASE (boolean conditions).
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []When
	Else    Expr // nil means ELSE NULL
}

func (*Literal) exprNode()    {}
func (*ColumnRef) exprNode()  {}
func (*Binary) exprNode()     {}
func (*Unary) exprNode()      {}
func (*IsNull) exprNode()     {}
func (*InList) exprNode()     {}
func (*InSelect) exprNode()   {}
func (*Exists) exprNode()     {}
func (*ScalarSub) exprNode()  {}
func (*SubCompare) exprNode() {}
func (*Between) exprNode()    {}
func (*Like) exprNode()       {}
func (*FuncCall) exprNode()   {}
func (*Case) exprNode()       {}

// ---------------------------------------------------------------------------
// Table references and SELECT
// ---------------------------------------------------------------------------

// TransKind identifies a transition table (Section 3 of the paper).
type TransKind int

// Transition table kinds. TransNone marks an ordinary base table.
const (
	TransNone TransKind = iota
	TransInserted
	TransDeleted
	TransOldUpdated
	TransNewUpdated
	TransSelected // Section 5.1 extension
)

// TableRef is an entry in a FROM list: either a base table or one of the
// paper's transition tables (`inserted t`, `deleted t`,
// `old updated t[.c]`, `new updated t[.c]`), optionally aliased.
type TableRef struct {
	Trans  TransKind
	Table  string
	Column string // for `updated t.c` transition tables; "" otherwise
	Alias  string // "" if none
}

// Binding returns the name this reference is known by in the enclosing
// query: the alias if present, else the table name.
func (tr *TableRef) Binding() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Table
}

// SelectItem is one projection item: `*`, `q.*`, or an expression with an
// optional alias.
type SelectItem struct {
	Star      bool
	Qualifier string // for q.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a query block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []*TableRef
	Where    Expr // nil means WHERE TRUE (paper: "if the predicate is omitted ... where true")
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil means no LIMIT; must evaluate to a non-negative integer
}

func (*Select) stmtNode() {}

// Explain is `EXPLAIN <statement>`: render the executor's chosen plan
// (access paths, join order, cost estimates) for a SELECT or DML statement
// without executing it.
type Explain struct {
	Stmt Statement
}

func (*Explain) stmtNode() {}

// ---------------------------------------------------------------------------
// DML statements (the operations of an operation block, Section 2.1)
// ---------------------------------------------------------------------------

// Insert is `INSERT INTO t [(cols)] VALUES (...), ...` or
// `INSERT INTO t [(cols)] (select ...)`.
type Insert struct {
	Table   string
	Columns []string // nil means schema order
	Rows    [][]Expr // value-form; nil when Query is set
	Query   *Select  // select-form; nil when Rows is set
}

// Delete is `DELETE FROM t [WHERE p]`.
type Delete struct {
	Table string
	Alias string
	Where Expr
}

// Assignment is one `col = expr` of an UPDATE SET list.
type Assignment struct {
	Column string
	Expr   Expr
}

// Update is `UPDATE t SET c = e, ... [WHERE p]`.
type Update struct {
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

func (*Insert) stmtNode() {}
func (*Delete) stmtNode() {}
func (*Update) stmtNode() {}

// ---------------------------------------------------------------------------
// DDL statements
// ---------------------------------------------------------------------------

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    value.Kind
	NotNull bool
}

// CreateTable is `CREATE TABLE t (col type [NOT NULL], ...)`.
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

// DropTable is `DROP TABLE t`.
type DropTable struct {
	Name string
}

// CreateIndex is `CREATE INDEX name ON table (column)`: a secondary hash
// index accelerating equality selections on the column (see
// internal/storage).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

// DropIndex is `DROP INDEX name`.
type DropIndex struct {
	Name string
}

func (*CreateIndex) stmtNode() {}
func (*DropIndex) stmtNode()   {}

func (*CreateTable) stmtNode() {}
func (*DropTable) stmtNode()   {}

// ---------------------------------------------------------------------------
// Rule statements (Sections 3, 4.4, 5)
// ---------------------------------------------------------------------------

// TransPredOp is the operation a basic transition predicate watches.
type TransPredOp int

// Basic transition predicate operations.
const (
	PredInserted TransPredOp = iota // inserted into t
	PredDeleted                     // deleted from t
	PredUpdated                     // updated t  /  updated t.c
	PredSelected                    // selected t / selected t.c (Section 5.1)
)

// TransPred is one basic transition predicate. A rule's trigger is a
// disjunction of these (Section 3).
type TransPred struct {
	Op     TransPredOp
	Table  string
	Column string // for `updated t.c`; "" for whole-table predicates
}

// RuleAction describes what a rule does when its condition holds: execute
// an operation block, roll back the transaction, or call a registered
// external procedure (Section 5.2 extension).
type RuleAction struct {
	Rollback bool
	Call     string      // external procedure name; "" if none
	Block    []Statement // Insert/Delete/Update statements
}

// RuleScope selects which composite transition a rule is evaluated against
// (paper Section 4.2 and footnote 8). It is a documented syntax extension:
// `CREATE RULE name [SCOPE SINCE ACTION|CONSIDERED|TRIGGERED] WHEN ...`.
type RuleScope int

// Rule scopes. ScopeDefault (= since action) is the paper's semantics. The
// values number the scopes as rules.TriggerScope does, so the engine
// converts between the two directly.
const (
	ScopeDefault RuleScope = iota
	ScopeSinceConsidered
	ScopeSinceTriggered
)

// CreateRule is the paper's
//
//	create rule name
//	when  trans-pred [or trans-pred ...]
//	[if   condition]
//	then  action
//
// statement. In scripts the action block may be terminated by an optional
// END keyword (a documented extension; the paper gives no terminator).
type CreateRule struct {
	Name      string
	Scope     RuleScope
	Preds     []TransPred
	Condition Expr // nil means IF TRUE
	Action    RuleAction
}

// CreateRulePriority is `create rule priority r1 before r2` (Section 4.4):
// rule r1 has higher priority than rule r2. Any acyclic set of such
// pairings induces a partial order.
type CreateRulePriority struct {
	Before string // the higher-priority rule
	After  string
}

// DropRule removes a rule definition.
type DropRule struct {
	Name string
}

// SetRuleActive activates or deactivates a rule without dropping it
// (a convenience extension).
type SetRuleActive struct {
	Name   string
	Active bool
}

// AlterRule is `ALTER RULE name SCOPE SINCE ACTION|CONSIDERED|TRIGGERED`:
// it changes a defined rule's triggering scope (footnote 8), reusing
// CreateRule's scope clause. Here ScopeDefault means SINCE ACTION.
type AlterRule struct {
	Name  string
	Scope RuleScope
}

// ProcessRules is the Section 5.3 "rule triggering point" statement: the
// current externally-generated transition is considered complete, rules are
// processed, and a new transition begins — within the same transaction.
type ProcessRules struct{}

func (*CreateRule) stmtNode()         {}
func (*CreateRulePriority) stmtNode() {}
func (*DropRule) stmtNode()           {}
func (*SetRuleActive) stmtNode()      {}
func (*AlterRule) stmtNode()          {}
func (*ProcessRules) stmtNode()       {}
