package oracle

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sopr/internal/gen"
	"sopr/internal/value"
)

var writeCorpus = flag.Bool("writecorpus", false, "rewrite testdata/corpus/ entries from the targeted workloads")

// targetedWorkloads are hand-crafted scenarios aimed at the semantic
// corners of Sections 2-5 where the engine and the oracle are most likely
// to drift apart: scope-modified transition windows, Definition 2.1
// composition edge cases (delete-after-update, insert-then-delete
// cancellation), rollback and physical heap order, the exact
// transition-cap boundary, cross-kind coercion, three-valued logic, and
// transitive priority domination. Each is constructed so the interesting
// behavior is observable in the final state or the firing sequence, not
// just incidentally exercised. They run through the full differential
// check on every `go test`, and -writecorpus freezes them into
// testdata/corpus/ where TestCorpusReplays replays them deterministically.
func targetedWorkloads() map[string]*gen.Workload {
	t2 := func(name string, cols ...gen.Col) gen.Table { return gen.Table{Name: name, Cols: cols} }
	ic := func(name string) gen.Col { return gen.Col{Name: name, Kind: "int"} }
	insert := func(table string, rows ...[]gen.Lit) gen.Stmt {
		return gen.Stmt{Kind: "insert", Table: table, Rows: rows}
	}
	row := func(lits ...gen.Lit) []gen.Lit { return lits }
	atom := func(col, op string, lit gen.Lit) *gen.Where {
		return &gen.Where{Atom: &gen.Atom{Col: col, Op: op, Lit: lit}}
	}
	process := gen.Stmt{Kind: "process"}

	ws := map[string]*gen.Workload{}

	// scope_considered_reset: a SINCE CONSIDERED rule whose condition
	// counts the rows in its `new updated` window. The first PROCESS RULES
	// sees two updated rows (count = 2, condition false), which under the
	// considered scope must RESET the window; the second segment updates
	// exactly one row, so the restarted window has count = 1 and the rule
	// fires. Under default (since-activation) scope the windows compose to
	// count = 2 and the rule stays silent — the final state distinguishes
	// the two readings.
	ws["scope_considered_reset"] = &gen.Workload{
		Seed: 9001, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a"), ic("b")), t2("s", ic("x"))},
		Rules: []gen.Rule{{
			Name: "rc", Scope: "considered",
			Preds: []gen.Pred{{Op: "updated", Table: "t", Column: "a"}},
			Cond: &gen.Cond{
				Kind: "agg", Agg: "count",
				Sub: gen.SubQuery{Src: gen.Source{Trans: "new", Table: "t", Column: "a"}},
				Op:  "=", Lit: gen.IntLit(1),
			},
			Action: []gen.Stmt{insert("s", row(gen.IntLit(1)))},
		}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(1), gen.IntLit(0)), row(gen.IntLit(2), gen.IntLit(0)))},
			{
				{Kind: "update", Table: "t", Set: []gen.SetItem{{Col: "a", From: "a", ArithOp: "+", Lit: gen.IntLit(1)}}},
				process,
				{Kind: "update", Table: "t", Set: []gen.SetItem{{Col: "a", Lit: gen.IntLit(150)}}, Where: atom("a", "=", gen.IntLit(2))},
			},
		},
	}

	// scope_triggered_restart: a SINCE TRIGGERED rule whose window must
	// RESTART (not compose) when another rule's action alone re-satisfies
	// its transition predicate. r0's condition requires exactly one
	// inserted t row; the transaction inserts two, so r0 is first
	// considered false. r1 then fires, inserting a single t row — under
	// the triggered scope r0's window restarts to just that row (count =
	// 1) and r0 fires; under default scope the window would hold three
	// rows and r0 would stay silent. The firing order is deterministic
	// regardless of which rule the selection hook tries first.
	ws["scope_triggered_restart"] = &gen.Workload{
		Seed: 9002, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("b")), t2("s", ic("x"))},
		Rules: []gen.Rule{
			{
				Name: "r0", Scope: "triggered",
				Preds: []gen.Pred{{Op: "inserted", Table: "t"}},
				Cond: &gen.Cond{
					Kind: "agg", Agg: "count",
					Sub: gen.SubQuery{Src: gen.Source{Trans: "inserted", Table: "t"}},
					Op:  "=", Lit: gen.IntLit(1),
				},
				Action: []gen.Stmt{insert("s", row(gen.IntLit(7)))},
			},
			{
				Name:   "r1",
				Preds:  []gen.Pred{{Op: "inserted", Table: "u"}},
				Action: []gen.Stmt{insert("t", row(gen.IntLit(5)))},
			},
		},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(1)), row(gen.IntLit(2))), insert("u", row(gen.IntLit(1)))},
		},
	}

	// delete_after_update_oldrow: Definition 2.1 says a delete composed
	// after an update must surface the PRE-update value in the deleted
	// transition table (D takes the update's old row, and the update entry
	// disappears). The rule copies `deleted t` into s, so s must receive
	// (1, 'orig'), never (1, 'zz'). The second transaction checks the dual
	// cancellation law: insert-then-delete composes to an empty effect, so
	// the rule must not even trigger.
	ws["delete_after_update_oldrow"] = &gen.Workload{
		Seed: 9003, Cap: 10,
		Tables: []gen.Table{
			t2("t", ic("a"), gen.Col{Name: "b", Kind: "varchar"}),
			t2("s", ic("x"), gen.Col{Name: "y", Kind: "varchar"}),
		},
		Rules: []gen.Rule{{
			Name:  "rd",
			Preds: []gen.Pred{{Op: "deleted", Table: "t"}},
			Action: []gen.Stmt{{
				Kind: "inssel", Table: "s",
				Src:  &gen.Source{Trans: "deleted", Table: "t"},
				Proj: []gen.ProjItem{{Col: "a"}, {Col: "b"}},
			}},
		}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(1), gen.StrLit("orig")), row(gen.IntLit(2), gen.StrLit("keep")))},
			{
				{Kind: "update", Table: "t", Set: []gen.SetItem{{Col: "b", Lit: gen.StrLit("zz")}}, Where: atom("a", "=", gen.IntLit(1))},
				{Kind: "delete", Table: "t", Where: atom("a", "=", gen.IntLit(1))},
			},
			{
				insert("t", row(gen.IntLit(9), gen.StrLit("new9"))),
				{Kind: "delete", Table: "t", Where: atom("a", "=", gen.IntLit(9))},
			},
		},
	}

	// rollback_physical_order: physical heap order is observable through
	// scan order, and rollback returns the database to its state at
	// transaction start, heap order included. txn 1 deletes the middle row
	// (the swap-remove moves 3 into its slot), then triggers a rollback
	// rule; afterwards the heap order is the original [1, 2, 3] again, as
	// recovery from the log would rebuild it. txn 2 then materializes the
	// scan order into s, where exact handle+value comparison pins it.
	// Handles consumed by the rolled-back transaction stay consumed, which
	// the fresh handles in txn 2 verify.
	ws["rollback_physical_order"] = &gen.Workload{
		Seed: 9004, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("s", ic("x"))},
		Rules: []gen.Rule{{
			Name:  "rb",
			Preds: []gen.Pred{{Op: "inserted", Table: "t"}},
			Cond: &gen.Cond{
				Kind: "exists",
				Sub: gen.SubQuery{
					Src:   gen.Source{Trans: "inserted", Table: "t"},
					Where: atom("a", ">=", gen.IntLit(50)),
				},
			},
			Rollback: true,
		}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(1)), row(gen.IntLit(2)), row(gen.IntLit(3)))},
			{
				{Kind: "delete", Table: "t", Where: atom("a", "=", gen.IntLit(2))},
				insert("t", row(gen.IntLit(99))),
			},
			{
				insert("t", row(gen.IntLit(4))),
				{Kind: "inssel", Table: "s", Src: &gen.Source{Table: "t"}, Proj: []gen.ProjItem{{Col: "a"}}},
			},
		},
	}

	// runaway_cap_boundary: a self-triggering rule under Cap = 5 must fire
	// exactly 5 times and then fail on the 6th selection (the counter is
	// incremented before the cap check), rolling the whole transaction
	// back as a runaway error on both sides. The follow-up transaction on
	// an unwatched table must commit, verifying that the handle counter
	// state after a runaway rollback also agrees.
	ws["runaway_cap_boundary"] = &gen.Workload{
		Seed: 9005, Cap: 5,
		Tables: []gen.Table{t2("t", ic("a")), t2("q", ic("c"))},
		Rules: []gen.Rule{{
			Name:   "loop",
			Preds:  []gen.Pred{{Op: "inserted", Table: "t"}},
			Action: []gen.Stmt{insert("t", row(gen.IntLit(1)))},
		}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(0)))},
			{insert("q", row(gen.IntLit(10)))},
		},
	}

	// exact_cap_quiesce: the dual boundary — a three-rule chain under
	// Cap = 3 performs exactly Cap rule transitions and then quiesces, so
	// the transaction must COMMIT: the cap is a strict bound on cap+1
	// attempts, not on reaching cap.
	ws["exact_cap_quiesce"] = &gen.Workload{
		Seed: 9006, Cap: 3,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("b")), t2("v", ic("c")), t2("w", ic("d"))},
		Rules: []gen.Rule{
			{Name: "c0", Preds: []gen.Pred{{Op: "inserted", Table: "t"}}, Action: []gen.Stmt{insert("u", row(gen.IntLit(1)))}},
			{Name: "c1", Preds: []gen.Pred{{Op: "inserted", Table: "u"}}, Action: []gen.Stmt{insert("v", row(gen.IntLit(1)))}},
			{Name: "c2", Preds: []gen.Pred{{Op: "inserted", Table: "v"}}, Action: []gen.Stmt{insert("w", row(gen.IntLit(1)))}},
		},
		Txns: [][]gen.Stmt{{insert("t", row(gen.IntLit(1)))}},
	}

	// crosskind_coercion: Validate deliberately does not kind-match
	// literals or projections against column kinds, so coercion behavior
	// is itself under test. int -> float widens; an integral float narrows
	// to int; a fractional float must error identically on both sides and
	// roll the transaction back.
	ws["crosskind_coercion"] = &gen.Workload{
		Seed: 9007, Cap: 10,
		Tables: []gen.Table{
			t2("t", ic("i"), gen.Col{Name: "f", Kind: "float"}),
			t2("s", gen.Col{Name: "f2", Kind: "float"}, gen.Col{Name: "i2", Kind: "int"}),
		},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(3), gen.FloatLit(4.0)), row(gen.IntLit(5), gen.FloatLit(2.5)))},
			{{Kind: "inssel", Table: "s", Src: &gen.Source{Table: "t"},
				Proj: []gen.ProjItem{{Col: "i"}, {Col: "f"}}, Where: atom("f", "=", gen.FloatLit(4.0))}},
			{{Kind: "inssel", Table: "s", Src: &gen.Source{Table: "t"},
				Proj: []gen.ProjItem{{Col: "i"}, {Col: "f"}}, Where: atom("f", "=", gen.FloatLit(2.5))}},
			{{Kind: "update", Table: "s", Set: []gen.SetItem{{Col: "f2", Lit: gen.IntLit(7)}}, Where: atom("i2", "=", gen.IntLit(4))}},
		},
	}

	// null_semantics: three-valued logic in every position — an aggregate
	// condition over an all-NULL column is Unknown (rule silent), an IN
	// whose subquery yields NULLs makes non-matching rows Unknown (not
	// updated) while a genuine match still updates, and ISNULL inside an
	// AND selects the right row for deletion.
	ws["null_semantics"] = &gen.Workload{
		Seed: 9008, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a"), ic("b")), t2("s", ic("x"))},
		Rules: []gen.Rule{{
			Name:  "rn",
			Preds: []gen.Pred{{Op: "inserted", Table: "t"}},
			Cond: &gen.Cond{
				Kind: "agg", Agg: "sum",
				Sub: gen.SubQuery{Col: "b", Src: gen.Source{Trans: "inserted", Table: "t"}},
				Op:  ">", Lit: gen.IntLit(0),
			},
			Action: []gen.Stmt{insert("s", row(gen.IntLit(1)))},
		}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(1), gen.Null), row(gen.IntLit(2), gen.Null))},
			{insert("t", row(gen.IntLit(3), gen.IntLit(5)), row(gen.IntLit(5), gen.Null))},
			{{Kind: "update", Table: "t", Set: []gen.SetItem{{Col: "a", Lit: gen.IntLit(99)}},
				Where: &gen.Where{Atom: &gen.Atom{Col: "a", Op: "in",
					Sub: &gen.SubQuery{Col: "b", Src: gen.Source{Table: "t"}}}}}},
			{{Kind: "delete", Table: "t", Where: &gen.Where{And: []*gen.Where{
				{Atom: &gen.Atom{Col: "b", Op: "isnull"}},
				atom("a", "=", gen.IntLit(99)),
			}}}},
		},
	}

	// priority_transitive: r0 is prioritized before r1 and r1 before r2,
	// with no direct r0-r2 edge, and r1 is never triggered. When r0 and r2
	// are both triggered, r2 is dominated only TRANSITIVELY (through the
	// untriggered r1) — both sides must honor reachability, firing r0
	// first at every selection salt, which the lockstep firing-sequence
	// comparison enforces.
	ws["priority_transitive"] = &gen.Workload{
		Seed: 9009, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("b")), t2("s0", ic("x")), t2("s2", ic("z"))},
		Rules: []gen.Rule{
			{Name: "r0", Preds: []gen.Pred{{Op: "inserted", Table: "t"}}, Action: []gen.Stmt{insert("s0", row(gen.IntLit(1)))}},
			{Name: "r1", Preds: []gen.Pred{{Op: "inserted", Table: "u"}}, Action: []gen.Stmt{insert("s0", row(gen.IntLit(99)))}},
			{Name: "r2", Preds: []gen.Pred{{Op: "inserted", Table: "t"}}, Action: []gen.Stmt{insert("s2", row(gen.IntLit(1)))}},
		},
		Priorities: []gen.Priority{{Before: "r0", After: "r1"}, {Before: "r1", After: "r2"}},
		Txns:       [][]gen.Stmt{{insert("t", row(gen.IntLit(1)))}},
	}

	// empty_segments: PROCESS RULES in degenerate positions — leading
	// (the init-trans-info segment carries an EMPTY effect), doubled, and
	// trailing after a firing. Both sides must segment identically and
	// treat the empty transitions as no-ops rather than re-firing or
	// resetting anything.
	ws["empty_segments"] = &gen.Workload{
		Seed: 9010, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("q", ic("c"))},
		Rules: []gen.Rule{{
			Name:  "re",
			Preds: []gen.Pred{{Op: "inserted", Table: "t"}},
			Cond: &gen.Cond{
				Kind: "exists",
				Sub: gen.SubQuery{
					Src:   gen.Source{Trans: "inserted", Table: "t"},
					Where: atom("a", ">=", gen.IntLit(1)),
				},
			},
			Action: []gen.Stmt{insert("q", row(gen.IntLit(1)))},
		}},
		Txns: [][]gen.Stmt{
			{process, process, insert("t", row(gen.IntLit(1))), process, process},
		},
	}

	// The index_* workloads aim at Figure 1's rule index (rules.Set.Watchers):
	// the engine composes a transition only into the rules with a predicate
	// on one of its tables, and creates a rule's trans-info only when such a
	// transition first reaches it. log(msg) records what each rule saw.
	logt := t2("log", gen.Col{Name: "msg", Kind: "varchar"})
	logRow := func(msg string) gen.Stmt { return insert("log", row(gen.StrLit(msg))) }
	logFrom := func(msg string, src gen.Source) gen.Stmt {
		return gen.Stmt{Kind: "inssel", Table: "log", Src: &src, Proj: []gen.ProjItem{{Lit: gen.StrLit(msg)}}}
	}
	inserted := func(table string) gen.Source { return gen.Source{Trans: "inserted", Table: table} }
	pred := func(op, table string) gen.Pred { return gen.Pred{Op: op, Table: table} }

	// index_composes_once: seen watches t and u, so the index lists it
	// under both, yet a transition touching both must compose into it
	// exactly once. Composing twice is not idempotent: mover's
	// insert-then-delete of the t tuple -1 would turn into a deletion, and
	// seen would log it. txn 2's real deletion of a t tuple is logged.
	ws["index_composes_once"] = &gen.Workload{
		Seed: 9011, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("a")), logt},
		Rules: []gen.Rule{
			{
				Name:  "mover",
				Preds: []gen.Pred{pred("inserted", "t")},
				Action: []gen.Stmt{
					{Kind: "inssel", Table: "u", Src: &gen.Source{Trans: "inserted", Table: "t"},
						Proj: []gen.ProjItem{{Col: "a"}}, Where: atom("a", "<", gen.IntLit(0))},
					{Kind: "delete", Table: "t", Where: atom("a", "<", gen.IntLit(0))},
				},
			},
			{
				Name:   "seen",
				Preds:  []gen.Pred{pred("inserted", "t"), pred("deleted", "t"), pred("inserted", "u")},
				Cond:   &gen.Cond{Kind: "exists", Sub: gen.SubQuery{Src: gen.Source{Trans: "deleted", Table: "t"}}},
				Action: []gen.Stmt{logRow("deleted t")},
			},
		},
		Priorities: []gen.Priority{{Before: "mover", After: "seen"}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(-1)), row(gen.IntLit(2)))},
			{{Kind: "delete", Table: "t", Where: atom("a", "=", gen.IntLit(2))}},
		},
	}

	// index_scopes: the footnote 8 scopes on indexed rules. cons (SINCE
	// CONSIDERED) watches t and w. In txn 1 it is considered false on two
	// inserted t rows, which resets its window, so back's two t rows later
	// leave it false again; under the default scope the window would hold
	// four rows and cons would fire. In txn 2 it fires on three rows, and
	// again on back's three. trig (SINCE TRIGGERED) logs each inserted u
	// row. feed copies only b = 0 rows, so back's b = 1 rows end the chain.
	ws["index_scopes"] = &gen.Workload{
		Seed: 9012, Cap: 20,
		Tables: []gen.Table{t2("t", ic("a"), ic("b")), t2("u", ic("a")), t2("w", ic("a")), logt},
		Rules: []gen.Rule{
			{
				Name:  "feed",
				Preds: []gen.Pred{pred("inserted", "t")},
				Action: []gen.Stmt{{Kind: "inssel", Table: "u", Src: &gen.Source{Trans: "inserted", Table: "t"},
					Proj: []gen.ProjItem{{Col: "a"}}, Where: atom("b", "=", gen.IntLit(0))}},
			},
			{
				Name:  "back",
				Preds: []gen.Pred{pred("inserted", "u")},
				Action: []gen.Stmt{{Kind: "inssel", Table: "t", Src: &gen.Source{Trans: "inserted", Table: "u"},
					Proj: []gen.ProjItem{{Col: "a"}, {Lit: gen.IntLit(1)}}}},
			},
			{
				Name: "trig", Scope: "triggered",
				Preds:  []gen.Pred{pred("inserted", "u")},
				Action: []gen.Stmt{logFrom("trig", inserted("u"))},
			},
			{
				Name: "cons", Scope: "considered",
				Preds: []gen.Pred{pred("inserted", "t"), pred("inserted", "w")},
				Cond: &gen.Cond{
					Kind: "agg", Agg: "count",
					Sub: gen.SubQuery{Src: inserted("t")},
					Op:  ">", Lit: gen.IntLit(2),
				},
				Action: []gen.Stmt{logRow("cons")},
			},
		},
		Priorities: []gen.Priority{{Before: "trig", After: "back"}, {Before: "cons", After: "feed"}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(0), gen.IntLit(0)), row(gen.IntLit(5), gen.IntLit(0))), insert("w", row(gen.IntLit(9)))},
			{insert("t", row(gen.IntLit(1), gen.IntLit(0)), row(gen.IntLit(2), gen.IntLit(0)), row(gen.IntLit(3), gen.IntLit(0)))},
		},
	}

	// index_process_rules: PROCESS RULES splits a block into external
	// transitions, each composed into the rules it reaches like a rule
	// transition. both watches t and u; onlyu watches only u, so the t
	// segments never reach it. In txn 1 onlyu deletes a u tuple inserted
	// in the same transaction, which cancels, so both is not triggered.
	// The last block is two empty segments.
	ws["index_process_rules"] = &gen.Workload{
		Seed: 9013, Cap: 10,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("a")), logt},
		Rules: []gen.Rule{
			{
				Name:   "both",
				Preds:  []gen.Pred{pred("inserted", "t"), pred("deleted", "u")},
				Action: []gen.Stmt{logFrom("both", inserted("t"))},
			},
			{
				Name:  "onlyu",
				Preds: []gen.Pred{pred("inserted", "u")},
				Cond: &gen.Cond{
					Kind: "agg", Agg: "count",
					Sub: gen.SubQuery{Src: inserted("u")},
					Op:  ">", Lit: gen.IntLit(1),
				},
				Action: []gen.Stmt{{Kind: "delete", Table: "u", Where: atom("a", "=", gen.IntLit(0))}},
			},
		},
		Txns: [][]gen.Stmt{
			{insert("u", row(gen.IntLit(0)), row(gen.IntLit(5)))},
			{
				insert("t", row(gen.IntLit(1))), process,
				insert("u", row(gen.IntLit(7)), row(gen.IntLit(8))), process,
				{Kind: "delete", Table: "u", Where: atom("a", "=", gen.IntLit(5))}, insert("t", row(gen.IntLit(2))),
			},
			{process, process},
		},
	}

	// index_after_failure: a transaction rolled back by a rule (veto) or by
	// the transition cap (loop) leaves trans-info behind in the rules it
	// reached; the next transaction must start from empty. watch fires on
	// every u insertion and logs any inserted t or w row in its window, so
	// a leftover from a failed transaction shows in log.
	ws["index_after_failure"] = &gen.Workload{
		Seed: 9014, Cap: 5,
		Tables: []gen.Table{t2("t", ic("a")), t2("u", ic("a")), t2("w", ic("a")), logt},
		Rules: []gen.Rule{
			{
				Name:  "veto",
				Preds: []gen.Pred{pred("inserted", "t")},
				Cond: &gen.Cond{Kind: "exists", Sub: gen.SubQuery{
					Src: inserted("t"), Where: atom("a", "=", gen.IntLit(99)),
				}},
				Rollback: true,
			},
			{
				Name:  "loop",
				Preds: []gen.Pred{pred("inserted", "w")},
				Action: []gen.Stmt{{Kind: "inssel", Table: "w", Src: &gen.Source{Trans: "inserted", Table: "w"},
					Proj: []gen.ProjItem{{Col: "a"}}}},
			},
			{
				Name:   "watch",
				Preds:  []gen.Pred{pred("inserted", "t"), pred("inserted", "u"), pred("inserted", "w")},
				Action: []gen.Stmt{logFrom("watch t", inserted("t")), logFrom("watch w", inserted("w"))},
			},
		},
		Priorities: []gen.Priority{{Before: "veto", After: "watch"}, {Before: "loop", After: "watch"}},
		Txns: [][]gen.Stmt{
			{insert("t", row(gen.IntLit(99)))},
			{insert("u", row(gen.IntLit(1)))},
			{insert("w", row(gen.IntLit(0)))},
			{insert("u", row(gen.IntLit(2)))},
		},
	}

	return ws
}

// TestTargetedWorkloads validates and differentially executes every
// hand-crafted corner-case workload, at several selection salts so
// chooser-order variation is covered too. With -writecorpus it also
// freezes each one into testdata/corpus/, where TestCorpusReplays replays
// them on every run.
func TestTargetedWorkloads(t *testing.T) {
	for name, w := range targetedWorkloads() {
		name, w := name, w
		t.Run(name, func(t *testing.T) {
			if err := w.Validate(); err != nil {
				t.Fatalf("workload invalid: %v", err)
			}
			for _, salt := range []uint64{uint64(w.Seed), 0, 1, 2} {
				if d := RunDiff(w, Options{Salt: salt}); d != nil {
					t.Fatalf("salt %d: %v", salt, d)
				}
			}
			if *writeCorpus {
				data, err := w.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join("testdata", "corpus")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestTargetedExpectations pins the intended OUTCOME of the trickiest
// targeted workloads against the oracle alone. The differential check
// proves engine == oracle; this proves both match the paper's semantics
// as designed (e.g. that the considered-scope rule really does fire after
// the window reset), guarding against the failure mode where engine and
// oracle share the same misreading.
func TestTargetedExpectations(t *testing.T) {
	ws := targetedWorkloads()
	run := func(name string) (*DB, []Outcome) {
		w := ws[name]
		db := New(w, Chooser(uint64(w.Seed)))
		var outs []Outcome
		for _, txn := range w.Txns {
			outs = append(outs, db.RunTxn(txn))
		}
		return db, outs
	}
	count := func(db *DB, table string) int {
		return len(db.State()[table])
	}

	t.Run("scope_considered_reset", func(t *testing.T) {
		db, outs := run("scope_considered_reset")
		if got := outs[1].Firings; len(got) != 1 || got[0] != "rc" {
			t.Fatalf("considered-scope window did not reset: firings %v, want [rc]", got)
		}
		if n := count(db, "s"); n != 1 {
			t.Fatalf("s has %d rows, want 1", n)
		}
	})
	t.Run("scope_triggered_restart", func(t *testing.T) {
		db, outs := run("scope_triggered_restart")
		want := []string{"r1", "r0"}
		got := outs[0].Firings
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("triggered-scope window did not restart: firings %v, want %v", got, want)
		}
		if n := count(db, "s"); n != 1 {
			t.Fatalf("s has %d rows, want 1", n)
		}
	})
	t.Run("delete_after_update_oldrow", func(t *testing.T) {
		db, outs := run("delete_after_update_oldrow")
		if got := outs[1].Firings; len(got) != 1 {
			t.Fatalf("delete-after-update firings %v, want [rd]", got)
		}
		sRows := db.State()["s"]
		if len(sRows) != 1 || !sRows[0].Row[1].Equal(value.NewString("orig")) {
			t.Fatalf("deleted transition row = %v, want the pre-update value 'orig'", sRows)
		}
		if got := outs[2].Firings; len(got) != 0 {
			t.Fatalf("insert-then-delete did not cancel: firings %v", got)
		}
	})
	t.Run("runaway_cap_boundary", func(t *testing.T) {
		_, outs := run("runaway_cap_boundary")
		if outs[0].Kind != Errored || !outs[0].Runaway {
			t.Fatalf("txn 0 outcome %+v, want runaway error", outs[0])
		}
		if len(outs[0].Firings) != 0 {
			t.Fatalf("rolled-back runaway reported firings %v", outs[0].Firings)
		}
		if outs[1].Kind != Committed {
			t.Fatalf("txn 1 outcome %+v, want committed", outs[1])
		}
	})
	t.Run("exact_cap_quiesce", func(t *testing.T) {
		_, outs := run("exact_cap_quiesce")
		if outs[0].Kind != Committed || len(outs[0].Firings) != 3 {
			t.Fatalf("outcome %+v, want committed with exactly 3 firings", outs[0])
		}
	})
	t.Run("crosskind_coercion", func(t *testing.T) {
		db, outs := run("crosskind_coercion")
		if outs[1].Kind != Committed || outs[2].Kind != Errored || outs[3].Kind != Committed {
			t.Fatalf("outcomes %+v %+v %+v, want committed/errored/committed", outs[1], outs[2], outs[3])
		}
		if n := count(db, "s"); n != 1 {
			t.Fatalf("s has %d rows, want 1 (the fractional-float copy must roll back)", n)
		}
	})
	t.Run("null_semantics", func(t *testing.T) {
		_, outs := run("null_semantics")
		if len(outs[0].Firings) != 0 {
			t.Fatalf("sum over all-NULL fired: %v", outs[0].Firings)
		}
		if len(outs[1].Firings) != 1 {
			t.Fatalf("sum over mixed NULL/5 did not fire: %v", outs[1].Firings)
		}
	})
	t.Run("priority_transitive", func(t *testing.T) {
		_, outs := run("priority_transitive")
		want := []string{"r0", "r2"}
		got := outs[0].Firings
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("transitive domination ignored: firings %v, want %v", got, want)
		}
	})
	t.Run("rollback_physical_order", func(t *testing.T) {
		db, outs := run("rollback_physical_order")
		if outs[1].Kind != RolledBack || outs[1].Rule != "rb" {
			t.Fatalf("txn 1 outcome %v, want rolled back by rb", outs[1])
		}
		var got []int64
		for _, r := range db.State()["s"] {
			got = append(got, r.Row[0].Int())
		}
		if want := []int64{1, 2, 3, 4}; !slices.Equal(got, want) {
			t.Fatalf("s in handle order = %v, want the pre-transaction scan order %v", got, want)
		}
	})
	t.Run("empty_segments", func(t *testing.T) {
		_, outs := run("empty_segments")
		if outs[0].Kind != Committed || len(outs[0].Firings) != 1 {
			t.Fatalf("outcome %+v, want committed with 1 firing", outs[0])
		}
	})
	// logged counts the log rows per message.
	logged := func(db *DB) map[string]int {
		n := map[string]int{}
		for _, r := range db.State()["log"] {
			n[r.Row[0].Str()]++
		}
		return n
	}
	firings := func(t *testing.T, outs []Outcome, want ...string) {
		t.Helper()
		for i, o := range outs {
			if got := strings.Join(o.Firings, ","); o.Kind != Committed || got != want[i] {
				t.Errorf("txn %d: %v firings [%s], want committed [%s]", i, o, got, want[i])
			}
		}
	}
	t.Run("index_composes_once", func(t *testing.T) {
		db, outs := run("index_composes_once")
		firings(t, outs, "mover", "seen")
		if got := logged(db); !maps.Equal(got, map[string]int{"deleted t": 1}) {
			t.Fatalf("log %v, want the one real deletion", got)
		}
	})
	t.Run("index_scopes", func(t *testing.T) {
		db, outs := run("index_scopes")
		for i, want := range []int{0, 2} {
			if got := strings.Count(strings.Join(outs[i].Firings, ",")+",", "cons,"); got != want {
				t.Errorf("txn %d: cons fired %d times (%v), want %d", i, got, outs[i].Firings, want)
			}
		}
		if got := logged(db); !maps.Equal(got, map[string]int{"cons": 2, "trig": 5}) {
			t.Fatalf("log %v, want cons 2 and trig 5", got)
		}
	})
	t.Run("index_process_rules", func(t *testing.T) {
		db, outs := run("index_process_rules")
		firings(t, outs, "onlyu", "both,onlyu,both", "")
		if got := logged(db); !maps.Equal(got, map[string]int{"both": 2}) {
			t.Fatalf("log %v, want both 2", got)
		}
	})
	t.Run("index_after_failure", func(t *testing.T) {
		db, outs := run("index_after_failure")
		if outs[0].Kind != RolledBack || outs[0].Rule != "veto" {
			t.Errorf("txn 0 outcome %v, want rolled back by veto", outs[0])
		}
		if outs[2].Kind != Errored || !outs[2].Runaway {
			t.Errorf("txn 2 outcome %v, want runaway error", outs[2])
		}
		firings(t, []Outcome{outs[1], outs[3]}, "watch", "watch")
		if got := logged(db); len(got) != 0 {
			t.Fatalf("watch saw a failed transaction's transition: log %v", got)
		}
	})
}
