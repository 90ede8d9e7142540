// Package gen generates random-but-valid rule-system workloads for the
// differential test harness: schemas, secondary indexes, rule sets
// (transition predicates, transition-table references, self- and
// mutually-triggering actions, priority edges, rollback actions) and
// operation-block workloads.
//
// The workload model is deliberately its own small AST, independent of
// sqlast: the renderer turns it into SQL text for the real engine, while
// the reference oracle (internal/oracle) interprets the model directly.
// A divergence anywhere in the parser, executor, access paths, effect
// composition, or rule loop therefore surfaces as a state mismatch.
//
// Every workload serializes to JSON, so minimized failures can be checked
// into testdata/corpus/ and replayed deterministically.
package gen

import (
	"encoding/json"
	"fmt"
	"math"

	"sopr/internal/value"
)

// Lit is a JSON-serializable SQL literal. K is "n" (NULL), "i", "f", "s"
// or "b".
type Lit struct {
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

// Null, IntLit, FloatLit, StrLit, BoolLit construct literals.
var Null = Lit{K: "n"}

// IntLit returns an integer literal.
func IntLit(i int64) Lit { return Lit{K: "i", I: i} }

// FloatLit returns a float literal. NaN and infinities are not
// representable in SQL text and are rejected by Validate.
func FloatLit(f float64) Lit { return Lit{K: "f", F: f} }

// StrLit returns a string literal.
func StrLit(s string) Lit { return Lit{K: "s", S: s} }

// BoolLit returns a boolean literal.
func BoolLit(b bool) Lit { return Lit{K: "b", B: b} }

// Value converts the literal to the engine's value representation.
func (l Lit) Value() value.Value {
	switch l.K {
	case "i":
		return value.NewInt(l.I)
	case "f":
		return value.NewFloat(l.F)
	case "s":
		return value.NewString(l.S)
	case "b":
		return value.NewBool(l.B)
	default:
		return value.Null
	}
}

// Col is one generated column. Kind is the value.Kind name used in CREATE
// TABLE ("int", "float", "varchar", "boolean"). All generated columns are
// nullable.
type Col struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// ValueKind maps the column kind name to a value.Kind.
func (c Col) ValueKind() value.Kind {
	switch c.Kind {
	case "int":
		return value.KindInt
	case "float":
		return value.KindFloat
	case "varchar":
		return value.KindString
	case "boolean":
		return value.KindBool
	default:
		return value.KindNull
	}
}

// Table is one generated table.
type Table struct {
	Name string `json:"name"`
	Cols []Col  `json:"cols"`
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Index is a generated secondary index (engine-side only: the oracle is
// index-free by construction, which is the point).
type Index struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Column string `json:"column"`
}

// Source is a FROM source for subqueries and insert-selects: a base table
// (Trans == "") or one of the paper's transition tables. Column is set
// only for "old"/"new" updated forms licensed by a column-level predicate.
type Source struct {
	Trans  string `json:"trans,omitempty"` // "", "inserted", "deleted", "old", "new"
	Table  string `json:"table"`
	Column string `json:"column,omitempty"`
}

// SubQuery is a one-source subquery: `select Col from Src [where ...]`.
// Col is "" for `select *` (exists) and count(*) forms.
type SubQuery struct {
	Col   string `json:"col,omitempty"`
	Src   Source `json:"src"`
	Where *Where `json:"where,omitempty"`
}

// Atom is one comparison in a WHERE tree. Op is one of "=", "<>", "<",
// "<=", ">", ">=", "isnull", "notnull", or "in" (Sub set, Lit unused).
type Atom struct {
	Col string    `json:"col"`
	Op  string    `json:"op"`
	Lit Lit       `json:"lit,omitempty"`
	Sub *SubQuery `json:"sub,omitempty"`
}

// Where is a predicate tree: exactly one of Atom, And, Or, Not is set.
type Where struct {
	Atom *Atom    `json:"atom,omitempty"`
	And  []*Where `json:"and,omitempty"`
	Or   []*Where `json:"or,omitempty"`
	Not  *Where   `json:"not,omitempty"`
}

// JoinSrc is one aliased FROM source of a join condition.
type JoinSrc struct {
	Src   Source `json:"src"`
	Alias string `json:"alias"`
}

// JoinOn is one equi-join conjunct between two join sources, addressed by
// their index in Cond.Srcs: `Srcs[LSrc].LCol = Srcs[RSrc].RCol`.
type JoinOn struct {
	LSrc int    `json:"lsrc"`
	LCol string `json:"lcol"`
	RSrc int    `json:"rsrc"`
	RCol string `json:"rcol"`
}

// JoinAtom is one literal comparison against a single join source. Op is
// one of "=", "<>", "<", "<=", ">", ">=", "isnull", "notnull".
type JoinAtom struct {
	Src int    `json:"src"`
	Col string `json:"col"`
	Op  string `json:"op"`
	Lit Lit    `json:"lit,omitempty"`
}

// Cond is a rule condition. Kind is "exists", "notexists", "agg", "join"
// or "notjoin". For "agg", Agg is "count", "sum", "min" or "max" and the
// condition is `(select agg(...) from sub) Op Lit`. For "join"/"notjoin"
// the condition is `[not] exists (select * from Srcs... where On... and
// Atoms...)` — a multi-source join over transition and base tables that
// exercises the engine's cost-based join planner inside rule conditions
// (Sub is unused).
type Cond struct {
	Kind string   `json:"kind"`
	Sub  SubQuery `json:"sub"`
	Agg  string   `json:"agg,omitempty"`
	Op   string   `json:"op,omitempty"`
	Lit  Lit      `json:"lit,omitempty"`

	Srcs  []JoinSrc  `json:"srcs,omitempty"`
	On    []JoinOn   `json:"on,omitempty"`
	Atoms []JoinAtom `json:"atoms,omitempty"`
}

// SetItem is one assignment of an UPDATE: Col = expr, where expr is a
// literal (From == "") or `From ArithOp Lit` / bare `From` (ArithOp "").
type SetItem struct {
	Col     string `json:"col"`
	Lit     Lit    `json:"lit,omitempty"`
	From    string `json:"from,omitempty"`
	ArithOp string `json:"arith,omitempty"` // "+", "-" or ""
}

// ProjItem is one projected item of an insert-select: a source column
// (Col != "") or a literal.
type ProjItem struct {
	Col string `json:"col,omitempty"`
	Lit Lit    `json:"lit,omitempty"`
}

// Stmt is one operation. Kind:
//
//	"insert"  — INSERT INTO Table VALUES Rows (full schema order)
//	"inssel"  — INSERT INTO Table (SELECT Proj... FROM Src [WHERE Where])
//	"delete"  — DELETE FROM Table [WHERE Where]
//	"update"  — UPDATE Table SET Set... [WHERE Where]
//	"process" — PROCESS RULES (Section 5.3 triggering point)
type Stmt struct {
	Kind  string     `json:"kind"`
	Table string     `json:"table,omitempty"`
	Rows  [][]Lit    `json:"rows,omitempty"`
	Src   *Source    `json:"src,omitempty"`
	Proj  []ProjItem `json:"proj,omitempty"`
	Where *Where     `json:"where,omitempty"`
	Set   []SetItem  `json:"set,omitempty"`
}

// Pred is one basic transition predicate. Op is "inserted", "deleted" or
// "updated"; Column only for column-level updated predicates.
type Pred struct {
	Op     string `json:"op"`
	Table  string `json:"table"`
	Column string `json:"column,omitempty"`
}

// Rule is one generated production rule.
type Rule struct {
	Name     string `json:"name"`
	Scope    string `json:"scope,omitempty"` // "", "considered", "triggered"
	Preds    []Pred `json:"preds"`
	Cond     *Cond  `json:"cond,omitempty"`
	Rollback bool   `json:"rollback,omitempty"`
	Action   []Stmt `json:"action,omitempty"`
}

// Priority is one `create rule priority Before before After` edge.
type Priority struct {
	Before string `json:"before"`
	After  string `json:"after"`
}

// Workload is one complete generated scenario: definitions plus a sequence
// of operation blocks, each executed as one transaction.
type Workload struct {
	Seed       int64      `json:"seed"` // generation seed, informational
	Tables     []Table    `json:"tables"`
	Indexes    []Index    `json:"indexes,omitempty"`
	Rules      []Rule     `json:"rules,omitempty"`
	Priorities []Priority `json:"priorities,omitempty"`
	Txns       [][]Stmt   `json:"txns"`
	// Cap is the MaxRuleTransitions guard applied to the engine and the
	// oracle alike; hitting it is itself compared for parity.
	Cap int `json:"cap"`
	// OrderIndependent marks workloads whose final database state is
	// provably independent of the rule selection order (see markOrder);
	// the harness runs a selection-order permutation check on these.
	OrderIndependent bool `json:"order_independent,omitempty"`
}

// Table returns the named table, or nil.
func (w *Workload) Table(name string) *Table {
	for i := range w.Tables {
		if w.Tables[i].Name == name {
			return &w.Tables[i]
		}
	}
	return nil
}

// Marshal serializes the workload as indented JSON for the corpus.
func (w *Workload) Marshal() ([]byte, error) {
	return json.MarshalIndent(w, "", " ")
}

// Unmarshal parses a corpus entry.
func Unmarshal(data []byte) (*Workload, error) {
	var w Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("gen: invalid workload: %w", err)
	}
	return &w, nil
}

// Validate performs the structural checks the generator guarantees and a
// corpus entry must satisfy: known tables/columns, transition references
// licensed by the owning rule's predicates, representable literals, and a
// positive transition cap. The oracle and renderer both rely on these
// invariants.
func (w *Workload) Validate() error {
	if w.Cap <= 0 {
		return fmt.Errorf("cap must be positive")
	}
	if len(w.Tables) == 0 {
		return fmt.Errorf("no tables")
	}
	names := map[string]bool{}
	for i := range w.Tables {
		t := &w.Tables[i]
		if names[t.Name] {
			return fmt.Errorf("duplicate table %q", t.Name)
		}
		names[t.Name] = true
		if len(t.Cols) == 0 {
			return fmt.Errorf("table %q has no columns", t.Name)
		}
		for _, c := range t.Cols {
			if c.ValueKind() == value.KindNull {
				return fmt.Errorf("table %q column %q has unknown kind %q", t.Name, c.Name, c.Kind)
			}
		}
	}
	for _, ix := range w.Indexes {
		t := w.Table(ix.Table)
		if t == nil || t.ColIndex(ix.Column) < 0 {
			return fmt.Errorf("index %q on unknown %s.%s", ix.Name, ix.Table, ix.Column)
		}
	}
	ruleNames := map[string]bool{}
	for ri := range w.Rules {
		r := &w.Rules[ri]
		if ruleNames[r.Name] {
			return fmt.Errorf("duplicate rule %q", r.Name)
		}
		ruleNames[r.Name] = true
		if len(r.Preds) == 0 {
			return fmt.Errorf("rule %q has no transition predicates", r.Name)
		}
		for _, p := range r.Preds {
			t := w.Table(p.Table)
			if t == nil {
				return fmt.Errorf("rule %q watches unknown table %q", r.Name, p.Table)
			}
			if p.Column != "" && (p.Op != "updated" || t.ColIndex(p.Column) < 0) {
				return fmt.Errorf("rule %q has bad predicate column %s.%s", r.Name, p.Table, p.Column)
			}
			switch p.Op {
			case "inserted", "deleted", "updated":
			default:
				return fmt.Errorf("rule %q has unknown predicate op %q", r.Name, p.Op)
			}
		}
		if r.Rollback && len(r.Action) > 0 {
			return fmt.Errorf("rule %q has both rollback and an action block", r.Name)
		}
		if !r.Rollback && len(r.Action) == 0 {
			return fmt.Errorf("rule %q has no action", r.Name)
		}
		if r.Cond != nil {
			if err := w.validateCond(r.Cond, r); err != nil {
				return fmt.Errorf("rule %q condition: %w", r.Name, err)
			}
		}
		for si := range r.Action {
			if err := w.validateStmt(&r.Action[si], r); err != nil {
				return fmt.Errorf("rule %q action: %w", r.Name, err)
			}
		}
	}
	for _, p := range w.Priorities {
		if !ruleNames[p.Before] || !ruleNames[p.After] {
			return fmt.Errorf("priority references unknown rule (%s before %s)", p.Before, p.After)
		}
	}
	for ti, txn := range w.Txns {
		for si := range txn {
			if err := w.validateStmt(&txn[si], nil); err != nil {
				return fmt.Errorf("txn %d: %w", ti, err)
			}
		}
	}
	return nil
}

// licensed reports whether a transition source is licensed by one of the
// rule's basic transition predicates (the Section 3 restriction the engine
// enforces at rule definition).
func licensed(src *Source, r *Rule) bool {
	if src.Trans == "" {
		return true
	}
	if r == nil {
		return false // transition tables outside a rule
	}
	for _, p := range r.Preds {
		if p.Table != src.Table {
			continue
		}
		switch src.Trans {
		case "inserted":
			if p.Op == "inserted" {
				return true
			}
		case "deleted":
			if p.Op == "deleted" {
				return true
			}
		case "old", "new":
			if p.Op == "updated" && p.Column == src.Column {
				return true
			}
		}
	}
	return false
}

func (w *Workload) validateSub(sub *SubQuery, r *Rule) error {
	t := w.Table(sub.Src.Table)
	if t == nil {
		return fmt.Errorf("unknown table %q", sub.Src.Table)
	}
	if !licensed(&sub.Src, r) {
		return fmt.Errorf("unlicensed transition source %s %s", sub.Src.Trans, sub.Src.Table)
	}
	if sub.Col != "" && t.ColIndex(sub.Col) < 0 {
		return fmt.Errorf("unknown column %s.%s", sub.Src.Table, sub.Col)
	}
	if sub.Src.Column != "" && t.ColIndex(sub.Src.Column) < 0 {
		return fmt.Errorf("unknown column %s.%s", sub.Src.Table, sub.Src.Column)
	}
	return w.validateWhere(sub.Where, t, r)
}

func (w *Workload) validateCond(c *Cond, r *Rule) error {
	switch c.Kind {
	case "exists", "notexists", "agg":
		return w.validateSub(&c.Sub, r)
	case "join", "notjoin":
		return w.validateJoinCond(c, r)
	default:
		return fmt.Errorf("unknown condition kind %q", c.Kind)
	}
}

// joinComparable reports whether two column kinds can be equi-joined
// without an evaluation error: both numeric, or the same kind. The
// restriction keeps join conditions error-free, so an access path that
// evaluates WHERE only on candidate rows (an index probe, access.go)
// cannot diverge from a nested loop that compares every pair. The planned
// join needs no such help: it never uses an incomparable conjunct.
func joinComparable(a, b string) bool {
	num := func(k string) bool { return k == "int" || k == "float" }
	return a == b || (num(a) && num(b))
}

func (w *Workload) validateJoinCond(c *Cond, r *Rule) error {
	if len(c.Srcs) < 2 {
		return fmt.Errorf("join condition needs at least two sources")
	}
	seen := map[string]bool{}
	for i, s := range c.Srcs {
		t := w.Table(s.Src.Table)
		if t == nil {
			return fmt.Errorf("unknown table %q", s.Src.Table)
		}
		if !licensed(&s.Src, r) {
			return fmt.Errorf("unlicensed transition source %s %s", s.Src.Trans, s.Src.Table)
		}
		if s.Src.Column != "" && t.ColIndex(s.Src.Column) < 0 {
			return fmt.Errorf("unknown column %s.%s", s.Src.Table, s.Src.Column)
		}
		if s.Alias == "" || seen[s.Alias] {
			return fmt.Errorf("join source %d has missing or duplicate alias %q", i, s.Alias)
		}
		seen[s.Alias] = true
	}
	if len(c.On) == 0 {
		return fmt.Errorf("join condition has no ON conjuncts")
	}
	for _, on := range c.On {
		if on.LSrc < 0 || on.LSrc >= len(c.Srcs) || on.RSrc < 0 || on.RSrc >= len(c.Srcs) || on.LSrc == on.RSrc {
			return fmt.Errorf("ON conjunct references bad sources %d, %d", on.LSrc, on.RSrc)
		}
		lt := w.Table(c.Srcs[on.LSrc].Src.Table)
		rt := w.Table(c.Srcs[on.RSrc].Src.Table)
		li, ri := lt.ColIndex(on.LCol), rt.ColIndex(on.RCol)
		if li < 0 || ri < 0 {
			return fmt.Errorf("ON conjunct references unknown column %s.%s or %s.%s", lt.Name, on.LCol, rt.Name, on.RCol)
		}
		if !joinComparable(lt.Cols[li].Kind, rt.Cols[ri].Kind) {
			return fmt.Errorf("ON conjunct joins incomparable kinds %s and %s", lt.Cols[li].Kind, rt.Cols[ri].Kind)
		}
	}
	for _, a := range c.Atoms {
		if a.Src < 0 || a.Src >= len(c.Srcs) {
			return fmt.Errorf("join atom references bad source %d", a.Src)
		}
		t := w.Table(c.Srcs[a.Src].Src.Table)
		if t.ColIndex(a.Col) < 0 {
			return fmt.Errorf("join atom references unknown column %s.%s", t.Name, a.Col)
		}
		switch a.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			if err := checkLit(a.Lit); err != nil {
				return err
			}
		case "isnull", "notnull":
		default:
			return fmt.Errorf("unknown join atom op %q", a.Op)
		}
	}
	return nil
}

func (w *Workload) validateWhere(wh *Where, t *Table, r *Rule) error {
	if wh == nil {
		return nil
	}
	set := 0
	if wh.Atom != nil {
		set++
	}
	if wh.And != nil {
		set++
	}
	if wh.Or != nil {
		set++
	}
	if wh.Not != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("where node must set exactly one of atom/and/or/not")
	}
	switch {
	case wh.Atom != nil:
		a := wh.Atom
		if t.ColIndex(a.Col) < 0 {
			return fmt.Errorf("unknown column %s.%s", t.Name, a.Col)
		}
		switch a.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			if err := checkLit(a.Lit); err != nil {
				return err
			}
		case "isnull", "notnull":
		case "in":
			if a.Sub == nil {
				return fmt.Errorf("IN atom without subquery")
			}
			if a.Sub.Col == "" {
				return fmt.Errorf("IN subquery must project a column")
			}
			return w.validateSub(a.Sub, r)
		default:
			return fmt.Errorf("unknown atom op %q", a.Op)
		}
	case wh.And != nil:
		for _, c := range wh.And {
			if err := w.validateWhere(c, t, r); err != nil {
				return err
			}
		}
	case wh.Or != nil:
		for _, c := range wh.Or {
			if err := w.validateWhere(c, t, r); err != nil {
				return err
			}
		}
	case wh.Not != nil:
		return w.validateWhere(wh.Not, t, r)
	}
	return nil
}

func checkLit(l Lit) error {
	switch l.K {
	case "n", "i", "s", "b":
		return nil
	case "f":
		if math.IsNaN(l.F) || math.IsInf(l.F, 0) {
			return fmt.Errorf("float literal %v is not representable in SQL text", l.F)
		}
		return nil
	default:
		return fmt.Errorf("unknown literal kind %q", l.K)
	}
}

func (w *Workload) validateStmt(s *Stmt, r *Rule) error {
	if s.Kind == "process" {
		if r != nil {
			return fmt.Errorf("PROCESS RULES inside a rule action")
		}
		return nil
	}
	t := w.Table(s.Table)
	if t == nil {
		return fmt.Errorf("unknown table %q", s.Table)
	}
	switch s.Kind {
	case "insert":
		if len(s.Rows) == 0 {
			return fmt.Errorf("insert with no rows")
		}
		for _, row := range s.Rows {
			if len(row) != len(t.Cols) {
				return fmt.Errorf("insert row width %d != %d", len(row), len(t.Cols))
			}
			for _, l := range row {
				if err := checkLit(l); err != nil {
					return err
				}
			}
		}
	case "inssel":
		if s.Src == nil {
			return fmt.Errorf("insert-select without source")
		}
		src := w.Table(s.Src.Table)
		if src == nil {
			return fmt.Errorf("unknown source table %q", s.Src.Table)
		}
		if !licensed(s.Src, r) {
			return fmt.Errorf("unlicensed transition source %s %s", s.Src.Trans, s.Src.Table)
		}
		if s.Src.Column != "" && src.ColIndex(s.Src.Column) < 0 {
			return fmt.Errorf("unknown column %s.%s", s.Src.Table, s.Src.Column)
		}
		if len(s.Proj) != len(t.Cols) {
			return fmt.Errorf("insert-select projection width %d != %d", len(s.Proj), len(t.Cols))
		}
		for _, p := range s.Proj {
			if p.Col != "" {
				if src.ColIndex(p.Col) < 0 {
					return fmt.Errorf("unknown projected column %s.%s", s.Src.Table, p.Col)
				}
			} else if err := checkLit(p.Lit); err != nil {
				return err
			}
		}
		return w.validateWhere(s.Where, src, r)
	case "delete":
		return w.validateWhere(s.Where, t, r)
	case "update":
		if len(s.Set) == 0 {
			return fmt.Errorf("update with no assignments")
		}
		for _, a := range s.Set {
			if t.ColIndex(a.Col) < 0 {
				return fmt.Errorf("unknown column %s.%s", t.Name, a.Col)
			}
			if a.From != "" && t.ColIndex(a.From) < 0 {
				return fmt.Errorf("unknown column %s.%s", t.Name, a.From)
			}
			if err := checkLit(a.Lit); err != nil {
				return err
			}
			switch a.ArithOp {
			case "", "+", "-":
			default:
				return fmt.Errorf("unsupported arithmetic op %q", a.ArithOp)
			}
		}
		return w.validateWhere(s.Where, t, r)
	default:
		return fmt.Errorf("unknown statement kind %q", s.Kind)
	}
	return nil
}
