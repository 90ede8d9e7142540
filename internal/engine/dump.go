package engine

import (
	"fmt"
	"io"
	"strings"

	"sopr/internal/catalog"
	"sopr/internal/rules"
	"sopr/internal/sqlast"
)

// insertBatch is the number of rows emitted per INSERT statement in dumps.
const insertBatch = 500

// Dump writes a script that recreates the database: CREATE TABLE
// statements, batched INSERTs, then rule definitions, priorities and
// deactivations. Data precedes rules so that reloading the script does not
// fire the rules. External procedures cannot be serialized; rules calling
// them are emitted and will fail to re-install unless the procedures are
// registered before loading.
//
// Dump reads the published engine snapshot — schema, data, indexes, rules
// and LSN all from one consistent committed cut — so it is lock-free and
// may run at any time, concurrent with the write path; an in-flight
// transaction is simply not visible.
func (e *Engine) Dump(w io.Writer) error {
	sn := e.snap.Load()
	cat := sn.store.Catalog()
	if err := dumpTables(w, cat); err != nil {
		return err
	}
	for _, name := range cat.Names() {
		tuples, err := sn.store.Tuples(name)
		if err != nil {
			return err
		}
		for start := 0; start < len(tuples); start += insertBatch {
			end := start + insertBatch
			if end > len(tuples) {
				end = len(tuples)
			}
			var b strings.Builder
			b.WriteString("INSERT INTO ")
			b.WriteString(name)
			b.WriteString(" VALUES ")
			for i, tup := range tuples[start:end] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(tup.Values.String())
			}
			b.WriteString(";\n")
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	// Indexes after the data (a reload bulk-builds each index once) and
	// before the rules, which are rendered here from the snapshot's
	// immutable rule set.
	if err := dumpIndexes(w, cat); err != nil {
		return err
	}
	return dumpRules(w, sn.rules)
}

// dumpTables writes the CREATE TABLE statements for the given catalog.
// Shared by Dump (snapshot catalog) and the WAL checkpoint writer (live
// catalog, on the exclusive path).
func dumpTables(w io.Writer, cat *catalog.Catalog) error {
	for _, name := range cat.Names() {
		t, err := cat.Lookup(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s;\n", t.String()); err != nil {
			return err
		}
	}
	return nil
}

// dumpIndexes writes the CREATE INDEX statements.
func dumpIndexes(w io.Writer, cat *catalog.Catalog) error {
	for _, name := range cat.IndexNames() {
		ix, err := cat.Index(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "CREATE INDEX %s ON %s (%s);\n", ix.Name, ix.Table, ix.Column); err != nil {
			return err
		}
	}
	return nil
}

// dumpRules writes a rule set's definitions, priorities and deactivations.
// Shared by Dump (the snapshot's set) and the checkpoint writer.
func dumpRules(w io.Writer, set *rules.Set) error {
	for i := 0; i < set.Len(); i++ {
		r := set.Rule(i)
		cr := &sqlast.CreateRule{
			Name:      r.Name,
			Scope:     sqlast.RuleScope(r.Scope),
			Preds:     r.Preds,
			Condition: r.Condition,
			Action:    r.Action,
		}
		if _, err := fmt.Fprintf(w, "%s;\n", cr.String()); err != nil {
			return err
		}
	}
	for _, edge := range set.Edges() {
		if _, err := fmt.Fprintf(w, "CREATE RULE PRIORITY %s BEFORE %s;\n", edge[0], edge[1]); err != nil {
			return err
		}
	}
	for i := 0; i < set.Len(); i++ {
		if r := set.Rule(i); !r.Active {
			if _, err := fmt.Fprintf(w, "DEACTIVATE RULE %s;\n", r.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load executes a dump script. It is Exec with a reader.
func (e *Engine) Load(r io.Reader) error {
	src, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	_, err = e.Exec(string(src))
	return err
}
