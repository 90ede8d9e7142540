package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
)

// indexEnv builds a store with indexed tables carrying NULLs, duplicate
// keys and integers beyond 2^53 (where float64 rounding would conflate
// neighbours), plus a small dimension table for join and subquery probes.
func indexEnv(t *testing.T, rows int, seed int64) *Env {
	t.Helper()
	e := &Env{Store: storage.New()}
	mustExecDDL(t, e, `create table big (id int, grp int, note varchar)`)
	mustExecDDL(t, e, `create table dim (grp int, label varchar)`)
	rng := rand.New(rand.NewSource(seed))
	var bb strings.Builder
	bb.WriteString("insert into big values ")
	huge := int64(1) << 53
	for i := 0; i < rows; i++ {
		if i > 0 {
			bb.WriteString(", ")
		}
		id := fmt.Sprintf("%d", rng.Int63n(int64(rows)))
		switch rng.Intn(12) {
		case 0:
			id = "null"
		case 1:
			// Neighbouring >2^53 ints that collapse under float64.
			id = fmt.Sprintf("%d", huge+rng.Int63n(3))
		}
		grp := fmt.Sprintf("%d", rng.Intn(5))
		if rng.Intn(10) == 0 {
			grp = "null"
		}
		fmt.Fprintf(&bb, "(%s, %s, 'n%d')", id, grp, i)
	}
	mustOp(t, e, bb.String())
	mustOp(t, e, `insert into dim values (0,'a'), (1,'b'), (2,'c'), (2,'c2'), (null,'x')`)
	for _, ix := range [][3]string{
		{"big_id", "big", "id"},
		{"big_grp", "big", "grp"},
		{"dim_grp", "dim", "grp"},
	} {
		if err := e.Store.(*storage.Store).CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestIndexedScanParity: every query returns byte-identical results (rows
// AND order) through the index access path and the heap scan.
func TestIndexedScanParity(t *testing.T) {
	huge := int64(1) << 53
	queries := []string{
		// Plain equality, hit and miss.
		`select note from big where id = 7`,
		`select note from big where id = -1`,
		// Equality never matches NULL ids.
		`select count(*) from big where id = null`,
		// >2^53 neighbours must not be conflated.
		fmt.Sprintf(`select note from big where id = %d`, huge),
		fmt.Sprintf(`select note from big where id = %d`, huge+1),
		// Float probe on an int column: integral, fractional, and huge.
		`select note from big where id = 7.0`,
		`select note from big where id = 7.5`,
		fmt.Sprintf(`select count(*) from big where id = %d.0`, huge),
		// Probe under surrounding conjuncts, both orientations.
		`select note from big where grp = 2 and id > 10`,
		`select note from big where note > 'n' and 3 = grp`,
		// IN-list, including NULL and duplicate members.
		`select note from big where id in (1, 2, 2, null, 3)`,
		`select note from big where grp in (0, 4)`,
		// IN-subselect probe against another table.
		`select note from big where grp in (select grp from dim where label = 'c')`,
		// Correlated outer binding probing the inner index.
		`select label from dim d where exists (select 1 from big b where b.grp = d.grp and b.note < 'n3')`,
		// Join where the build side is index-filtered.
		`select b.note, d.label from big b, dim d where b.grp = d.grp and b.id = 4`,
		// Aggregate over an indexed selection.
		`select count(*), min(note) from big where grp = 1`,
		// Self-referential RHS must decline the probe (scan fallback).
		`select count(*) from big where id = grp`,
		`select note from big b where b.id = b.grp + 1`,
		// OR at the top declines.
		`select count(*) from big where id = 3 or grp = 1`,
	}
	for _, seed := range []int64{11, 12, 13} {
		e := indexEnv(t, 120, seed)
		for _, q := range queries {
			st, err := sqlparse.ParseStatement(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			sel := st.(*sqlast.Select)
			indexed, err := e.Query(sel)
			if err != nil {
				t.Fatalf("indexed: %q: %v", q, err)
			}
			e.Naive = true
			scanned, err := e.Query(sel)
			e.Naive = false
			if err != nil {
				t.Fatalf("scan: %q: %v", q, err)
			}
			if !reflect.DeepEqual(indexed, scanned) {
				t.Errorf("seed %d query %q:\nindexed: %v\nscan:    %v", seed, q, indexed.Rows, scanned.Rows)
			}
		}
	}
}

// TestIndexedDMLParity: DELETE and UPDATE with sargable WHERE clauses
// leave the store in an identical state whether or not the index access
// path is used, and indexes stay consistent afterwards.
func TestIndexedDMLParity(t *testing.T) {
	ops := []string{
		`delete from big where id = 5`,
		`update big set note = 'touched' where grp = 2`,
		`delete from big where grp in (0, 3)`,
		`update big set grp = 4 where id in (select grp from dim where label = 'b')`,
	}
	dump := func(e *Env) [][]string {
		res := mustQuery(t, e, `select id, grp, note from big`)
		var out [][]string
		for _, r := range res.Rows {
			row := make([]string, len(r))
			for i, v := range r {
				row[i] = v.String()
			}
			out = append(out, row)
		}
		return out
	}
	ei := indexEnv(t, 80, 21)
	es := indexEnv(t, 80, 21)
	es.Naive = true
	for _, op := range ops {
		mustOp(t, ei, op)
		mustOp(t, es, op)
		if err := ei.Store.(*storage.Store).CheckIndexes(); err != nil {
			t.Fatalf("after %q: %v", op, err)
		}
		di, ds := dump(ei), dump(es)
		if !reflect.DeepEqual(di, ds) {
			t.Fatalf("after %q:\nindexed: %v\nscan:    %v", op, di, ds)
		}
	}
}

// TestIndexAccessCounters: a sargable query is actually served by the
// index (not silently falling back), and Naive forces the heap scan.
func TestIndexAccessCounters(t *testing.T) {
	e := indexEnv(t, 40, 31)
	_, lk0 := e.Store.(*storage.Store).AccessStats()
	mustQuery(t, e, `select note from big where id = 3`)
	_, lk1 := e.Store.(*storage.Store).AccessStats()
	if lk1 != lk0+1 {
		t.Errorf("index lookups %d -> %d, want +1", lk0, lk1)
	}
	hs0, _ := e.Store.(*storage.Store).AccessStats()
	e.Naive = true
	mustQuery(t, e, `select note from big where id = 3`)
	e.Naive = false
	hs1, lk2 := e.Store.(*storage.Store).AccessStats()
	if lk2 != lk1 {
		t.Errorf("Naive query used the index (%d -> %d)", lk1, lk2)
	}
	if hs1 != hs0+1 {
		t.Errorf("Naive heap scans %d -> %d, want +1", hs0, hs1)
	}
}
