package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"sopr/internal/engine"
	"sopr/internal/gen"
	"sopr/internal/value"
	"sopr/internal/wal"
)

// Chooser returns a pure rule-selection function: given the ascending
// candidate names it picks one by hashing the candidate set with the salt.
// Because it depends only on its argument (and the fixed salt), handing the
// same Chooser to the engine's SelectHook and to the oracle drives both
// through identical selection sequences — the precondition for lockstep
// state comparison, since Section 4.4 leaves the tie-break unspecified and
// different picks legitimately reach different final states.
func Chooser(salt uint64) func([]string) string {
	return func(candidates []string) string {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(salt >> (8 * i))
		}
		h.Write(buf[:])
		for _, c := range candidates {
			h.Write([]byte(c))
			h.Write([]byte{0})
		}
		return candidates[h.Sum64()%uint64(len(candidates))]
	}
}

// Divergence describes one disagreement between the engine and the oracle
// (or between two engine configurations that must agree).
type Divergence struct {
	Check string // which comparison failed
	Txn   int    // transaction index, -1 for end-of-workload checks
	Msg   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("%s check, txn %d: %s", d.Check, d.Txn, d.Msg)
}

func diverge(check string, txn int, format string, args ...interface{}) *Divergence {
	return &Divergence{Check: check, Txn: txn, Msg: fmt.Sprintf(format, args...)}
}

// Options configures a differential run.
type Options struct {
	Salt uint64 // selection tie-break salt; runs are deterministic per (workload, salt)

	// SkipMetamorphic drops the end-of-workload checks (dump→reload, WAL
	// crash-replay, selection-order permutation), leaving only the
	// lockstep comparison of the engine, its Naive twin and the oracle.
	// The shrinker uses it: a minimal repro for a lockstep divergence
	// should not be perturbed by a metamorphic check failing first.
	SkipMetamorphic bool
}

// RunDiff executes the workload through the real engine (query
// optimizations on), a Naive engine (heap scans, FROM-order nested loops),
// and the reference oracle, all under the same rule-selection order, and
// compares the three after every transaction: outcome (committed / rolled
// back by which rule / error, runaway or not), firing sequence, and exact
// database state, handles included. The Naive twin runs even under
// SkipMetamorphic — access paths and join plans must be pure
// optimizations, so it is part of the lockstep core, not a metamorphic
// extra.
//
// Unless SkipMetamorphic is set it then runs the metamorphic checks:
//
//   - dump→reload: loading the primary engine's dump into a fresh engine
//     must reproduce every table's contents up to handle renaming;
//   - WAL crash-replay: recovering the log (MemFS, fsync-always, unsynced
//     writes dropped) must reproduce the exact final state, handles
//     included;
//   - permutation: for workloads the generator certifies order-independent,
//     two runs under different selection salts must commit the same
//     transactions and agree on final contents up to handle renaming.
//
// It returns nil if every comparison agrees, else the first divergence.
func RunDiff(w *gen.Workload, opts Options) *Divergence {
	choose := Chooser(opts.Salt)

	// Primary engine, logging to an in-memory WAL for the crash-replay
	// check afterwards.
	mem := wal.NewMemFS()
	log, rec, err := wal.Open("diff", wal.Options{FS: mem, Policy: wal.SyncAlways})
	if err != nil {
		return diverge("setup", -1, "wal open: %v", err)
	}
	defer log.Close()
	if rec.Checkpoint != nil || len(rec.Records) != 0 {
		return diverge("setup", -1, "fresh MemFS recovered state")
	}
	eng := engine.New(engine.Config{MaxRuleTransitions: w.Cap, SelectHook: choose})
	eng.AttachWAL(log)
	if _, err := eng.Exec(w.SetupSQL()); err != nil {
		return diverge("setup", -1, "engine rejected setup: %v\n%s", err, w.SetupSQL())
	}

	// Naive twin: identical configuration except every query optimization
	// is off, so every evaluation scans heaps and runs FROM-order nested
	// loops.
	naive := engine.New(engine.Config{MaxRuleTransitions: w.Cap, SelectHook: choose, Naive: true})
	if _, err := naive.Exec(w.SetupSQL()); err != nil {
		return diverge("setup", -1, "naive engine rejected setup: %v", err)
	}

	odb := New(w, choose)

	for i := range w.Txns {
		engOut := engineOutcome(eng.Exec(w.TxnSQL(i)))
		oraOut := odb.RunTxn(w.Txns[i])
		if msg := outcomesDiffer(engOut, oraOut); msg != "" {
			return diverge("lockstep", i, "%s", msg)
		}
		engState, err := engineState(eng, w)
		if err != nil {
			return diverge("lockstep", i, "engine state: %v", err)
		}
		if msg := statesDiffer(engState, odb.State()); msg != "" {
			return diverge("lockstep", i, "%s", msg)
		}
		naiveOut := engineOutcome(naive.Exec(w.TxnSQL(i)))
		if msg := outcomesDiffer(naiveOut, oraOut); msg != "" {
			return diverge("naive", i, "%s", msg)
		}
		naiveState, err := engineState(naive, w)
		if err != nil {
			return diverge("naive", i, "engine state: %v", err)
		}
		if msg := statesDiffer(engState, naiveState); msg != "" {
			return diverge("naive", i, "%s", msg)
		}
	}
	if opts.SkipMetamorphic {
		return nil
	}
	final, err := engineState(eng, w)
	if err != nil {
		return diverge("final", -1, "engine state: %v", err)
	}

	// Dump → reload: contents must survive serialization, handles may not.
	var dump bytes.Buffer
	if err := eng.Dump(&dump); err != nil {
		return diverge("dumpreload", -1, "dump: %v", err)
	}
	fresh := engine.New(engine.Config{MaxRuleTransitions: w.Cap, SelectHook: choose})
	if err := fresh.Load(bytes.NewReader(dump.Bytes())); err != nil {
		return diverge("dumpreload", -1, "reload: %v\n%s", err, dump.String())
	}
	freshState, err := engineState(fresh, w)
	if err != nil {
		return diverge("dumpreload", -1, "engine state: %v", err)
	}
	if msg := valuesDiffer(final, freshState); msg != "" {
		return diverge("dumpreload", -1, "%s", msg)
	}

	// WAL crash-replay: drop unsynced bytes, recover into a fresh engine,
	// demand the exact state back. Commit records are appended without an
	// inline fsync (group commit defers durability to the owner's
	// WaitDurable); this harness drives the engine directly, so the Sync
	// here stands in for that wait — after it, every commit above counts
	// as acknowledged and must survive the crash.
	if err := log.Sync(); err != nil {
		return diverge("walreplay", -1, "sync: %v", err)
	}
	mem.DropUnsynced()
	log2, rec2, err := wal.Open("diff", wal.Options{FS: mem, Policy: wal.SyncAlways})
	if err != nil {
		return diverge("walreplay", -1, "reopen: %v", err)
	}
	defer log2.Close()
	recovered := engine.New(engine.Config{MaxRuleTransitions: w.Cap, SelectHook: choose})
	if err := recovered.Restore(rec2.Checkpoint); err != nil {
		return diverge("walreplay", -1, "checkpoint: %v", err)
	}
	for _, r := range rec2.Records {
		if err := recovered.ReplayRecord(r); err != nil {
			return diverge("walreplay", -1, "replay: %v", err)
		}
	}
	recState, err := engineState(recovered, w)
	if err != nil {
		return diverge("walreplay", -1, "engine state: %v", err)
	}
	if msg := statesDiffer(final, recState); msg != "" {
		return diverge("walreplay", -1, "%s", msg)
	}

	// Permutation: certified order-independent workloads must not care
	// which legal selection order the engine uses.
	if w.OrderIndependent {
		for _, salt := range []uint64{opts.Salt + 1, opts.Salt ^ 0x9e3779b97f4a7c15} {
			alt := engine.New(engine.Config{MaxRuleTransitions: w.Cap, SelectHook: Chooser(salt)})
			if _, err := alt.Exec(w.SetupSQL()); err != nil {
				return diverge("permutation", -1, "setup: %v", err)
			}
			for i := range w.Txns {
				out := engineOutcome(alt.Exec(w.TxnSQL(i)))
				if out.Kind != Committed {
					return diverge("permutation", i, "salt %d: order-independent workload did not commit: %s", salt, out)
				}
			}
			altState, err := engineState(alt, w)
			if err != nil {
				return diverge("permutation", -1, "engine state: %v", err)
			}
			if msg := valuesDiffer(final, altState); msg != "" {
				return diverge("permutation", -1, "salt %d: %s", salt, msg)
			}
		}
	}
	return nil
}

// Minimize shrinks a diverging workload to a smaller one that still
// diverges, spending at most budget differential runs. Metamorphic checks
// stay enabled only if the original divergence came from one — shrinking a
// lockstep bug must not wander off to a different check's failure.
func Minimize(w *gen.Workload, opts Options, budget int) *gen.Workload {
	orig := RunDiff(w, opts)
	if orig == nil {
		return w
	}
	lockstepOnly := orig.Check == "lockstep" || orig.Check == "naive" || orig.Check == "setup"
	shrinkOpts := opts
	shrinkOpts.SkipMetamorphic = lockstepOnly
	return gen.Shrink(w, func(c *gen.Workload) bool {
		d := RunDiff(c, shrinkOpts)
		return d != nil && d.Check == orig.Check
	}, budget)
}

// engineOutcome maps an engine transaction result onto the oracle's
// outcome domain.
func engineOutcome(res *engine.TxnResult, err error) Outcome {
	if err != nil {
		return Outcome{Kind: Errored, Runaway: errors.Is(err, engine.ErrRunaway), Err: err.Error()}
	}
	out := Outcome{Kind: Committed}
	if res.RolledBack {
		out = Outcome{Kind: RolledBack, Rule: res.RollbackRule}
	}
	for _, f := range res.Firings {
		out.Firings = append(out.Firings, f.Rule)
	}
	return out
}

func outcomesDiffer(engOut, oraOut Outcome) string {
	if engOut.Kind != oraOut.Kind || engOut.Rule != oraOut.Rule || engOut.Runaway != oraOut.Runaway {
		return fmt.Sprintf("outcome: engine %s, oracle %s", engOut, oraOut)
	}
	// The firing sequence must match too (the engine drops it on an
	// errored transaction, so only compare it when one was reported).
	if engOut.Kind != Errored {
		if len(engOut.Firings) != len(oraOut.Firings) {
			return fmt.Sprintf("firings: engine %v, oracle %v", engOut.Firings, oraOut.Firings)
		}
		for i := range engOut.Firings {
			if engOut.Firings[i] != oraOut.Firings[i] {
				return fmt.Sprintf("firings: engine %v, oracle %v", engOut.Firings, oraOut.Firings)
			}
		}
	}
	return ""
}

// engineState extracts the engine's database state in canonical form.
func engineState(eng *engine.Engine, w *gen.Workload) (State, error) {
	out := State{}
	for i := range w.Tables {
		name := w.Tables[i].Name
		tuples, err := eng.Store().Tuples(name)
		if err != nil {
			return nil, err
		}
		rows := make([]TupleState, len(tuples))
		for j, t := range tuples {
			rows[j] = TupleState{Handle: uint64(t.Handle), Row: t.Values}
		}
		out[name] = rows
	}
	return out, nil
}

// renderRow is kind-exact: INTEGER 3 and FLOAT 3.0 render differently, so
// a coercion bug on either side cannot hide behind numeric equality.
func renderRow(row []value.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if v.IsNull() {
			parts[i] = "NULL"
		} else {
			parts[i] = v.Kind().String() + ":" + v.String()
		}
	}
	return strings.Join(parts, ", ")
}

// statesDiffer compares two states exactly — same tables, same handles,
// same values — and describes the first difference.
func statesDiffer(a, b State) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ra, rb := a[n], b[n]
		if len(ra) != len(rb) {
			return fmt.Sprintf("table %s: %d rows vs %d rows", n, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Handle != rb[i].Handle {
				return fmt.Sprintf("table %s row %d: handle %d vs %d", n, i, ra[i].Handle, rb[i].Handle)
			}
			sa, sb := renderRow(ra[i].Row), renderRow(rb[i].Row)
			if sa != sb {
				return fmt.Sprintf("table %s handle %d: (%s) vs (%s)", n, ra[i].Handle, sa, sb)
			}
		}
	}
	return ""
}

// valuesDiffer compares two states as per-table multisets of rows,
// ignoring handles — for checks that legitimately renumber tuples.
func valuesDiffer(a, b State) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ra := sortedRows(a[n])
		rb := sortedRows(b[n])
		if len(ra) != len(rb) {
			return fmt.Sprintf("table %s: %d rows vs %d rows", n, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return fmt.Sprintf("table %s: row multisets differ at sorted position %d: (%s) vs (%s)", n, i, ra[i], rb[i])
			}
		}
	}
	return ""
}

func sortedRows(rows []TupleState) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderRow(r.Row)
	}
	sort.Strings(out)
	return out
}
