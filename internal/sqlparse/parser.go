package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"sopr/internal/sqlast"
	"sopr/internal/value"
)

// Parser state: a token stream with one-token operations plus arbitrary
// lookahead via peekAt.
type parser struct {
	src  string
	toks []token
	pos  int
}

// ParseStatements parses a semicolon-separated script into statements.
// CREATE RULE actions consume operation blocks greedily; terminate a rule
// with END when the following statement could be mistaken for part of the
// action (see the package documentation).
func ParseStatements(src string) ([]sqlast.Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var stmts []sqlast.Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' or end of input, found %s", p.peek())
		}
	}
}

// ParseStatement parses exactly one statement.
func ParseStatement(src string) (sqlast.Statement, error) {
	stmts, err := ParseStatements(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparse: expected one statement, found %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseExpr parses a standalone expression (used by tests and the
// constraint compiler).
func ParseExpr(src string) (sqlast.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) peekAt(k int) token {
	if p.pos+k >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+k]
}

func (p *parser) errorf(format string, args ...any) error {
	return syntaxErrorAt(p.src, p.peek().pos, fmt.Sprintf(format, args...))
}

// isKw reports whether tok is the identifier kw (already lowercase).
func isKw(t token, kw string) bool { return t.kind == tokIdent && t.text == kw }

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if isKw(p.peek(), kw) {
		p.pos++
		return true
	}
	return false
}

// expectKw consumes the keyword or errors.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %s, found %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

// acceptOp consumes the operator token if present.
func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

// expectOp consumes the operator or errors.
func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, found %s", op, p.peek())
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected %s, found %s", what, t)
	}
	p.pos++
	return t.text, nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) parseStatement() (sqlast.Statement, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected statement, found %s", t)
	}
	switch t.text {
	case "create":
		return p.parseCreate()
	case "drop":
		return p.parseDrop()
	case "insert":
		return p.parseInsert()
	case "delete":
		return p.parseDelete()
	case "update":
		return p.parseUpdate()
	case "select":
		return p.parseSelect()
	case "explain":
		p.pos++
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch inner.(type) {
		case *sqlast.Select, *sqlast.Insert, *sqlast.Delete, *sqlast.Update:
			return &sqlast.Explain{Stmt: inner}, nil
		default:
			return nil, p.errorf("EXPLAIN supports SELECT, INSERT, DELETE and UPDATE only")
		}
	case "alter":
		p.pos++
		if err := p.expectKw("rule"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("rule name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("scope"); err != nil {
			return nil, err
		}
		scope, err := p.parseScopeSince()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterRule{Name: name, Scope: scope}, nil
	case "activate", "deactivate":
		p.pos++
		if err := p.expectKw("rule"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("rule name")
		if err != nil {
			return nil, err
		}
		return &sqlast.SetRuleActive{Name: name, Active: t.text == "activate"}, nil
	case "process":
		p.pos++
		if err := p.expectKw("rules"); err != nil {
			return nil, err
		}
		return &sqlast.ProcessRules{}, nil
	default:
		return nil, p.errorf("unknown statement keyword %s", t)
	}
}

func (p *parser) parseCreate() (sqlast.Statement, error) {
	p.pos++ // create
	switch {
	case p.acceptKw("table"):
		return p.parseCreateTable()
	case p.acceptKw("index"):
		return p.parseCreateIndex()
	case isKw(p.peek(), "rule"):
		p.pos++
		// `create rule priority r1 before r2` vs `create rule name when ...`
		if isKw(p.peek(), "priority") && p.peekAt(1).kind == tokIdent && isKw(p.peekAt(2), "before") {
			p.pos++
			before, err := p.expectIdent("rule name")
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("before"); err != nil {
				return nil, err
			}
			after, err := p.expectIdent("rule name")
			if err != nil {
				return nil, err
			}
			return &sqlast.CreateRulePriority{Before: before, After: after}, nil
		}
		return p.parseCreateRule()
	default:
		return nil, p.errorf("expected TABLE, INDEX or RULE after CREATE, found %s", p.peek())
	}
}

// parseCreateIndex parses `CREATE INDEX name ON table (column)` with the
// leading CREATE INDEX already consumed.
func (p *parser) parseCreateIndex() (sqlast.Statement, error) {
	name, err := p.expectIdent("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	column, err := p.expectIdent("column name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CreateIndex{Name: name, Table: table, Column: column}, nil
}

var typeNames = map[string]value.Kind{
	"int": value.KindInt, "integer": value.KindInt, "bigint": value.KindInt, "smallint": value.KindInt,
	"float": value.KindFloat, "real": value.KindFloat, "double": value.KindFloat, "decimal": value.KindFloat, "numeric": value.KindFloat,
	"varchar": value.KindString, "char": value.KindString, "text": value.KindString, "string": value.KindString,
	"boolean": value.KindBool, "bool": value.KindBool,
}

func (p *parser) parseCreateTable() (sqlast.Statement, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []sqlast.ColumnDef
	for {
		cname, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		tname, err := p.expectIdent("column type")
		if err != nil {
			return nil, err
		}
		kind, ok := typeNames[tname]
		if !ok {
			return nil, p.errorf("unknown type %q", tname)
		}
		// Optional length, e.g. VARCHAR(20) — accepted and ignored.
		if p.acceptOp("(") {
			if p.peek().kind != tokNumber {
				return nil, p.errorf("expected length, found %s", p.peek())
			}
			p.pos++
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		notNull := false
		if p.acceptKw("not") {
			if err := p.expectKw("null"); err != nil {
				return nil, err
			}
			notNull = true
		}
		cols = append(cols, sqlast.ColumnDef{Name: cname, Type: kind, NotNull: notNull})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CreateTable{Name: name, Columns: cols}, nil
}

func (p *parser) parseDrop() (sqlast.Statement, error) {
	p.pos++ // drop
	switch {
	case p.acceptKw("table"):
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		return &sqlast.DropTable{Name: name}, nil
	case p.acceptKw("index"):
		name, err := p.expectIdent("index name")
		if err != nil {
			return nil, err
		}
		return &sqlast.DropIndex{Name: name}, nil
	case p.acceptKw("rule"):
		name, err := p.expectIdent("rule name")
		if err != nil {
			return nil, err
		}
		return &sqlast.DropRule{Name: name}, nil
	default:
		return nil, p.errorf("expected TABLE, INDEX or RULE after DROP, found %s", p.peek())
	}
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

func (p *parser) parseInsert() (sqlast.Statement, error) {
	p.pos++ // insert
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ins := &sqlast.Insert{Table: table}
	// Optional column list: `(` followed by an identifier that is not
	// SELECT. `(select ...)` is the select-form of insert (paper §2.1).
	if p.peek().kind == tokOp && p.peek().text == "(" && !isKw(p.peekAt(1), "select") {
		p.pos++
		for {
			c, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw("values"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []sqlast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		return ins, nil
	case p.peek().kind == tokOp && p.peek().text == "(" && isKw(p.peekAt(1), "select"):
		p.pos++
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	case isKw(p.peek(), "select"):
		// Also accept the unparenthesized form INSERT INTO t SELECT ...
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	default:
		return nil, p.errorf("expected VALUES or (SELECT ...), found %s", p.peek())
	}
}

func (p *parser) parseDelete() (sqlast.Statement, error) {
	p.pos++ // delete
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	del := &sqlast.Delete{Table: table}
	alias, ok, err := p.tryAlias()
	if err != nil {
		return nil, err
	}
	if ok {
		del.Alias = alias
	}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseUpdate() (sqlast.Statement, error) {
	p.pos++ // update
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	upd := &sqlast.Update{Table: table}
	if !isKw(p.peek(), "set") {
		alias, ok, err := p.tryAlias()
		if err != nil {
			return nil, err
		}
		if ok {
			upd.Alias = alias
		}
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, sqlast.Assignment{Column: col, Expr: e})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

// aliasStoppers are keywords that may follow a table reference and
// therefore cannot be aliases.
var aliasStoppers = map[string]bool{
	"where": true, "group": true, "order": true, "having": true,
	"set": true, "values": true, "when": true, "if": true, "then": true,
	"end": true, "and": true, "or": true, "on": true, "union": true,
	"select": true, "from": true, "inner": true, "join": true, "limit": true,
	"create": true, "drop": true, "insert": true, "delete": true, "update": true,
	"desc": true, "asc": true, "rollback": true, "process": true, "before": true,
	"case": true, "else": true,
}

// tryAlias consumes an optional [AS] alias after a table reference. An
// explicit AS must be followed by an identifier.
func (p *parser) tryAlias() (string, bool, error) {
	if p.acceptKw("as") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return "", false, err
		}
		return a, true, nil
	}
	t := p.peek()
	if t.kind == tokIdent && !aliasStoppers[t.text] {
		p.pos++
		return t.text, true, nil
	}
	return "", false, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *parser) parseSelect() (*sqlast.Select, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	sel := &sqlast.Select{}
	if p.acceptKw("distinct") {
		sel.Distinct = true
	}
	// Projection items.
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, it)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("from") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.acceptKw("desc") {
				item.Desc = true
			} else {
				p.acceptKw("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("limit") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.acceptOp("*") {
		return sqlast.SelectItem{Star: true}, nil
	}
	// q.* form.
	if p.peek().kind == tokIdent && p.peekAt(1).kind == tokOp && p.peekAt(1).text == "." &&
		p.peekAt(2).kind == tokOp && p.peekAt(2).text == "*" {
		q := p.next().text
		p.pos += 2
		return sqlast.SelectItem{Star: true, Qualifier: q}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	it := sqlast.SelectItem{Expr: e}
	if p.acceptKw("as") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		it.Alias = a
	} else if t := p.peek(); t.kind == tokIdent && !aliasStoppers[t.text] {
		p.pos++
		it.Alias = t.text
	}
	return it, nil
}

// parseTableRef parses a FROM entry: a base table or a transition table
// (`inserted t`, `deleted t`, `old|new updated t[.c]`, `selected t[.c]`),
// each with an optional alias.
func (p *parser) parseTableRef() (*sqlast.TableRef, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected table reference, found %s", t)
	}
	mk := func(kind sqlast.TransKind, withColumn bool) (*sqlast.TableRef, error) {
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		tr := &sqlast.TableRef{Trans: kind, Table: name}
		if withColumn && p.peek().kind == tokOp && p.peek().text == "." {
			p.pos++
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			tr.Column = col
		}
		a, ok, err := p.tryAlias()
		if err != nil {
			return nil, err
		}
		if ok {
			tr.Alias = a
		}
		return tr, nil
	}
	switch {
	case t.text == "inserted" && p.peekAt(1).kind == tokIdent && !aliasStoppers[p.peekAt(1).text]:
		p.pos++
		return mk(sqlast.TransInserted, false)
	case t.text == "deleted" && p.peekAt(1).kind == tokIdent && !aliasStoppers[p.peekAt(1).text]:
		p.pos++
		return mk(sqlast.TransDeleted, false)
	case t.text == "selected" && p.peekAt(1).kind == tokIdent && !aliasStoppers[p.peekAt(1).text]:
		p.pos++
		return mk(sqlast.TransSelected, true)
	case (t.text == "old" || t.text == "new") && isKw(p.peekAt(1), "updated") && p.peekAt(2).kind == tokIdent:
		p.pos += 2
		if t.text == "old" {
			return mk(sqlast.TransOldUpdated, true)
		}
		return mk(sqlast.TransNewUpdated, true)
	default:
		return mk(sqlast.TransNone, false)
	}
}

// ---------------------------------------------------------------------------
// CREATE RULE
// ---------------------------------------------------------------------------

// parseScopeSince parses `SINCE ACTION|CONSIDERED|TRIGGERED`, the rest of
// a scope clause after SCOPE.
func (p *parser) parseScopeSince() (sqlast.RuleScope, error) {
	if err := p.expectKw("since"); err != nil {
		return 0, err
	}
	t := p.peek()
	var scope sqlast.RuleScope
	switch {
	case isKw(t, "action"):
		scope = sqlast.ScopeDefault
	case isKw(t, "considered"):
		scope = sqlast.ScopeSinceConsidered
	case isKw(t, "triggered"):
		scope = sqlast.ScopeSinceTriggered
	default:
		return 0, p.errorf("expected ACTION, CONSIDERED or TRIGGERED, found %s", t)
	}
	p.pos++
	return scope, nil
}

func (p *parser) parseCreateRule() (sqlast.Statement, error) {
	name, err := p.expectIdent("rule name")
	if err != nil {
		return nil, err
	}
	rule := &sqlast.CreateRule{Name: name}
	// Optional `SCOPE SINCE ACTION|CONSIDERED|TRIGGERED` (footnote 8
	// extension).
	if p.acceptKw("scope") {
		if rule.Scope, err = p.parseScopeSince(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("when"); err != nil {
		return nil, err
	}
	for {
		pred, err := p.parseTransPred()
		if err != nil {
			return nil, err
		}
		rule.Preds = append(rule.Preds, pred)
		if p.acceptKw("or") {
			continue
		}
		break
	}
	if p.acceptKw("if") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		rule.Condition = c
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	action, err := p.parseRuleAction()
	if err != nil {
		return nil, err
	}
	rule.Action = action
	return rule, nil
}

func (p *parser) parseTransPred() (sqlast.TransPred, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return sqlast.TransPred{}, p.errorf("expected transition predicate, found %s", t)
	}
	switch t.text {
	case "inserted":
		p.pos++
		if err := p.expectKw("into"); err != nil {
			return sqlast.TransPred{}, err
		}
		tab, err := p.expectIdent("table name")
		if err != nil {
			return sqlast.TransPred{}, err
		}
		return sqlast.TransPred{Op: sqlast.PredInserted, Table: tab}, nil
	case "deleted":
		p.pos++
		if err := p.expectKw("from"); err != nil {
			return sqlast.TransPred{}, err
		}
		tab, err := p.expectIdent("table name")
		if err != nil {
			return sqlast.TransPred{}, err
		}
		return sqlast.TransPred{Op: sqlast.PredDeleted, Table: tab}, nil
	case "updated", "selected":
		p.pos++
		tab, err := p.expectIdent("table name")
		if err != nil {
			return sqlast.TransPred{}, err
		}
		pred := sqlast.TransPred{Op: sqlast.PredUpdated, Table: tab}
		if t.text == "selected" {
			pred.Op = sqlast.PredSelected
		}
		if p.peek().kind == tokOp && p.peek().text == "." {
			p.pos++
			col, err := p.expectIdent("column name")
			if err != nil {
				return sqlast.TransPred{}, err
			}
			pred.Column = col
		}
		return pred, nil
	default:
		return sqlast.TransPred{}, p.errorf("expected INSERTED/DELETED/UPDATED/SELECTED, found %s", t)
	}
}

// parseRuleAction parses ROLLBACK, CALL proc, or an operation block of
// INSERT/DELETE/UPDATE/SELECT operations separated by ';'. (SELECT in an
// action is the Section 5.1 "data retrieval in rules' actions" extension:
// the result set is delivered to the client with the transaction result.)
// The block ends at END, end of input, or a ';' followed by a token that
// cannot begin another operation of the block.
func (p *parser) parseRuleAction() (sqlast.RuleAction, error) {
	if p.acceptKw("rollback") {
		p.acceptKw("end")
		return sqlast.RuleAction{Rollback: true}, nil
	}
	if p.acceptKw("call") {
		proc, err := p.expectIdent("procedure name")
		if err != nil {
			return sqlast.RuleAction{}, err
		}
		p.acceptKw("end")
		return sqlast.RuleAction{Call: proc}, nil
	}
	var block []sqlast.Statement
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return sqlast.RuleAction{}, p.errorf("expected action operation, found %s", t)
		}
		var (
			op  sqlast.Statement
			err error
		)
		switch t.text {
		case "insert":
			op, err = p.parseInsert()
		case "delete":
			op, err = p.parseDelete()
		case "update":
			op, err = p.parseUpdate()
		case "select":
			op, err = p.parseSelect()
		default:
			return sqlast.RuleAction{}, p.errorf("rule actions may contain INSERT, DELETE, UPDATE or SELECT operations; found %s", t)
		}
		if err != nil {
			return sqlast.RuleAction{}, err
		}
		block = append(block, op)
		if p.acceptKw("end") {
			break
		}
		// A ';' continues the block only if another block operation follows.
		if p.peek().kind == tokOp && p.peek().text == ";" {
			nxt := p.peekAt(1)
			if nxt.kind == tokIdent &&
				(nxt.text == "insert" || nxt.text == "delete" || nxt.text == "update" || nxt.text == "select") {
				p.pos++
				continue
			}
			if isKw(nxt, "end") {
				p.pos += 2
				break
			}
		}
		break
	}
	return sqlast.RuleAction{Block: block}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Binary{Op: sqlast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Binary{Op: sqlast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: sqlast.OpNot, X: x}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]sqlast.BinOp{
	"=": sqlast.OpEq, "<>": sqlast.OpNe,
	"<": sqlast.OpLt, "<=": sqlast.OpLe,
	">": sqlast.OpGt, ">=": sqlast.OpGe,
}

// parsePredicate parses an additive expression optionally followed by one
// comparison/predicate suffix (IS NULL, IN, BETWEEN, LIKE, comparison).
func (p *parser) parsePredicate() (sqlast.Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("is") {
		neg := p.acceptKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &sqlast.IsNull{X: x, Negate: neg}, nil
	}
	neg := false
	if isKw(p.peek(), "not") {
		nxt := p.peekAt(1)
		if isKw(nxt, "in") || isKw(nxt, "between") || isKw(nxt, "like") {
			p.pos++
			neg = true
		}
	}
	switch {
	case p.acceptKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if isKw(p.peek(), "select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.InSelect{X: x, Sub: sub, Negate: neg}, nil
		}
		var list []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.InList{X: x, List: list, Negate: neg}, nil
	case p.acceptKw("between"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &sqlast.Between{X: x, Lo: lo, Hi: hi, Negate: neg}, nil
	case p.acceptKw("like"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &sqlast.Like{X: x, Pattern: pat, Negate: neg}, nil
	}
	// Comparison.
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.pos++
			// Quantified subquery: op ANY|SOME|ALL (select ...)
			if isKw(p.peek(), "any") || isKw(p.peek(), "some") || isKw(p.peek(), "all") {
				quant := sqlast.QuantAny
				if p.peek().text == "all" {
					quant = sqlast.QuantAll
				}
				p.pos++
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.SubCompare{X: x, Op: op, Quant: quant, Sub: sub}, nil
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &sqlast.Binary{Op: op, L: x, R: r}, nil
		}
	}
	return x, nil
}

// parseCase parses `CASE [operand] WHEN c THEN r ... [ELSE e] END`.
func (p *parser) parseCase() (sqlast.Expr, error) {
	p.pos++ // case
	c := &sqlast.Case{}
	if !isKw(p.peek(), "when") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseAdd() (sqlast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.pos++
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := sqlast.OpAdd
		if t.text == "-" {
			op = sqlast.OpSub
		}
		l = &sqlast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (sqlast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		var op sqlast.BinOp
		switch t.text {
		case "*":
			op = sqlast.OpMul
		case "/":
			op = sqlast.OpDiv
		default:
			op = sqlast.OpMod
		}
		l = &sqlast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: sqlast.OpNeg, X: x}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q: %v", t.text, err)
			}
			return &sqlast.Literal{Val: value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Out-of-range integer literal falls back to float.
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q: %v", t.text, err)
			}
			return &sqlast.Literal{Val: value.NewFloat(f)}, nil
		}
		return &sqlast.Literal{Val: value.NewInt(i)}, nil
	case tokString:
		p.pos++
		return &sqlast.Literal{Val: value.NewString(t.text)}, nil
	case tokOp:
		if t.text == "(" {
			p.pos++
			if isKw(p.peek(), "select") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.ScalarSub{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s", t)
	case tokIdent:
		switch t.text {
		case "null":
			p.pos++
			return &sqlast.Literal{Val: value.Null}, nil
		case "true":
			p.pos++
			return &sqlast.Literal{Val: value.NewBool(true)}, nil
		case "false":
			p.pos++
			return &sqlast.Literal{Val: value.NewBool(false)}, nil
		case "exists":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.Exists{Sub: sub}, nil
		case "case":
			return p.parseCase()
		}
		// Function call?
		if p.peekAt(1).kind == tokOp && p.peekAt(1).text == "(" {
			name := t.text
			p.pos += 2
			fc := &sqlast.FuncCall{Name: name}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptKw("distinct") {
				fc.Distinct = true
			}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.acceptOp(",") {
						continue
					}
					break
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Column reference, possibly qualified. Reserved words cannot start
		// a column reference (catches e.g. `SELECT FROM t`).
		if aliasStoppers[t.text] {
			return nil, p.errorf("unexpected keyword %s", t)
		}
		p.pos++
		if p.peek().kind == tokOp && p.peek().text == "." && p.peekAt(1).kind == tokIdent {
			p.pos++
			col := p.next().text
			return &sqlast.ColumnRef{Qualifier: t.text, Column: col}, nil
		}
		return &sqlast.ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errorf("unexpected %s", t)
	}
}
