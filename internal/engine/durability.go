// Durability: the engine's attachment to the write-ahead log.
//
// The durable unit is the composed net transition effect [I, D, U] of a
// committed transaction (Definition 2.1) — not the statements that produced
// it. Rule selection among unordered triggered rules is arbitrary
// (Section 4), so replaying statements with rule processing enabled could
// legally diverge from the pre-crash execution; replaying net effects with
// rule processing disabled lands on a byte-identical state. Definition
// statements are the exception: they execute between transactions and never
// trigger rules, so they are logged and replayed as SQL text.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"sopr/internal/rules"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/storage"
	"sopr/internal/value"
	"sopr/internal/wal"
)

// ckptBatch is the number of tuples per CkptRows record in a checkpoint.
const ckptBatch = 512

// AttachWAL connects the engine to an open log. Every subsequent committed
// transaction appends its net effect before the in-memory commit, and every
// executed definition statement appends its text. Restore and ReplayRecord
// never log what they apply, so a log may stay attached while a follower
// replays its stream into it. Attaching publishes the engine snapshot,
// making the fully-recovered state (and its LSN) visible to lock-free
// readers in one step.
func (e *Engine) AttachWAL(l *wal.Log) {
	e.wal = l
	e.PublishSnapshot()
}

// WAL returns the attached log, nil if the engine is not durable.
func (e *Engine) WAL() *wal.Log { return e.wal }

// valueToCell converts one engine value for the log.
func valueToCell(v value.Value) (wal.Cell, error) {
	switch v.Kind() {
	case value.KindNull:
		return wal.CellOf(nil)
	case value.KindInt:
		return wal.CellOf(v.Int())
	case value.KindFloat:
		return wal.CellOf(v.Float())
	case value.KindString:
		return wal.CellOf(v.Str())
	case value.KindBool:
		return wal.CellOf(v.Bool())
	default:
		return wal.Cell{}, fmt.Errorf("engine: cannot log value of kind %v", v.Kind())
	}
}

// cellToValue converts one logged cell back.
func cellToValue(c wal.Cell) (value.Value, error) {
	raw, err := c.Value()
	if err != nil {
		return value.Null, err
	}
	switch x := raw.(type) {
	case nil:
		return value.Null, nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case bool:
		return value.NewBool(x), nil
	default:
		return value.Null, fmt.Errorf("engine: unexpected logged value %T", raw)
	}
}

// rowToCells converts a whole row.
func rowToCells(row storage.Row) ([]wal.Cell, error) {
	cells := make([]wal.Cell, len(row))
	for i, v := range row {
		c, err := valueToCell(v)
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	return cells, nil
}

// cellsToRow converts a logged row back.
func cellsToRow(cells []wal.Cell) (storage.Row, error) {
	row := make(storage.Row, len(cells))
	for i, c := range cells {
		v, err := cellToValue(c)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// walHandles returns the effect-map keys in ascending order so commit
// records are deterministic for a given effect.
func walHandles[V any](m map[storage.Handle]V) []storage.Handle {
	hs := make([]storage.Handle, 0, len(m))
	for h := range m {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// buildCommitRecord converts a transaction's composed net effect into a
// durable commit record. It runs before store.Commit, while the transaction
// is still applied, so inserted and updated tuples' final values are read
// from the live store. LastHandle captures the allocation counter: handles
// consumed by rolled-back work are deliberately not reproduced on replay —
// handles need uniqueness and monotonicity, not density (Section 2).
func (e *Engine) buildCommitRecord(eff *rules.Effect) (*wal.CommitRecord, error) {
	byTable := make(map[string]*wal.TableEffect)
	tab := func(name string) *wal.TableEffect {
		t, ok := byTable[name]
		if !ok {
			t = &wal.TableEffect{Table: name}
			byTable[name] = t
		}
		return t
	}
	liveRow := func(h storage.Handle) ([]wal.Cell, error) {
		tup, ok := e.store.Get(h)
		if !ok {
			return nil, fmt.Errorf("engine: wal: handle %d in net effect but not in store", h)
		}
		return rowToCells(tup.Values)
	}
	for _, h := range walHandles(eff.Ins) {
		cells, err := liveRow(h)
		if err != nil {
			return nil, err
		}
		t := tab(eff.Ins[h])
		t.Ins = append(t.Ins, wal.TupleRec{Handle: uint64(h), Row: cells})
	}
	for _, h := range walHandles(eff.Del) {
		t := tab(eff.Del[h].Table)
		t.Del = append(t.Del, uint64(h))
	}
	for _, h := range walHandles(eff.Upd) {
		cells, err := liveRow(h)
		if err != nil {
			return nil, err
		}
		t := tab(eff.Upd[h].Table)
		t.Upd = append(t.Upd, wal.TupleRec{Handle: uint64(h), Row: cells})
	}
	names := make([]string, 0, len(byTable))
	for name := range byTable {
		names = append(names, name)
	}
	sort.Strings(names)
	rec := &wal.CommitRecord{LastHandle: uint64(e.store.NextHandle()) - 1}
	for _, name := range names {
		rec.Tables = append(rec.Tables, *byTable[name])
	}
	return rec, nil
}

// logCommit appends the transaction's net effect and returns its LSN.
// Called immediately before store.Commit; an error fails the transaction
// (log-before-commit: a transaction is only acknowledged once its record
// is in the log, so the log can lose at most unacknowledged work, never
// acknowledged work). The append is asynchronous with respect to
// durability: the record is framed and written but not yet fsynced — the
// owner must call wal.Log.WaitDurable on the returned LSN before
// acknowledging the transaction, which is where concurrent committers
// coalesce onto one group-commit fsync (sopr.DB and SynchronizedDB do
// this after releasing the write mutex).
func (e *Engine) logCommit(eff *rules.Effect) (uint64, error) {
	rec, err := e.buildCommitRecord(eff)
	if err != nil {
		return 0, err
	}
	lsn, err := e.wal.AppendCommitAsync(rec)
	if err != nil {
		return 0, fmt.Errorf("engine: log commit: %w", err)
	}
	return lsn, nil
}

// logDefinition appends a successfully-executed definition statement.
func (e *Engine) logDefinition(st sqlast.Statement) error {
	if err := e.wal.AppendDDL(st.String()); err != nil {
		return fmt.Errorf("engine: log definition: %w", err)
	}
	return nil
}

// ReplayRecord applies one recovered or replicated log record with rule
// processing disabled: commit records replay their net effect by handle,
// definition records re-apply their SQL text. It never writes the attached
// log: the record is already there (recovery) or its owner appended it
// (a durable follower).
//
// Replays deliberately do not publish a read snapshot: publishing freezes
// every table's components, so the next replayed record would copy its
// table's heap spine and chunk again. Recovery publishes once at the end
// (AttachWAL); a replication follower, which wants per-record read
// visibility, calls PublishSnapshot after each record and pays the
// copy-on-write of the chunks (and, for inserts and deletes, the
// directory and indexes) the record touches as the price.
func (e *Engine) ReplayRecord(rec wal.Record) error {
	switch rec.Kind {
	case wal.KindCommit:
		if rec.Commit == nil {
			return fmt.Errorf("engine: replay: commit record lsn %d has no payload", rec.LSN)
		}
		if err := e.replayCommit(rec.Commit); err != nil {
			return fmt.Errorf("engine: replay lsn %d: %w", rec.LSN, err)
		}
	case wal.KindDDL:
		if rec.DDL == nil {
			return fmt.Errorf("engine: replay: ddl record lsn %d has no payload", rec.LSN)
		}
		st, err := sqlparse.ParseStatement(rec.DDL.Stmt)
		if err != nil {
			return fmt.Errorf("engine: replay lsn %d: parse %q: %w", rec.LSN, rec.DDL.Stmt, err)
		}
		if err := e.applyDefinition(st); err != nil {
			return fmt.Errorf("engine: replay lsn %d: %w", rec.LSN, err)
		}
	case wal.KindEpoch:
		// Promotion epochs fence the replication stream (repl package);
		// they occupy an LSN but carry no database effect.
		if rec.Epoch == nil {
			return fmt.Errorf("engine: replay: epoch record lsn %d has no payload", rec.LSN)
		}
	default:
		return fmt.Errorf("engine: replay: unexpected record kind %d at lsn %d", rec.Kind, rec.LSN)
	}
	e.stats.RecoveredRecords++
	return nil
}

// replayCommit applies one net effect. The [I, D, U] sets of a composed
// effect are disjoint (Definition 2.1), so the order among them is free.
func (e *Engine) replayCommit(rec *wal.CommitRecord) error {
	for _, t := range rec.Tables {
		for _, h := range t.Del {
			if err := e.store.ReplayDelete(storage.Handle(h)); err != nil {
				return err
			}
		}
		for _, u := range t.Upd {
			row, err := cellsToRow(u.Row)
			if err != nil {
				return err
			}
			if err := e.store.ReplaySet(storage.Handle(u.Handle), row); err != nil {
				return err
			}
		}
		for _, ins := range t.Ins {
			row, err := cellsToRow(ins.Row)
			if err != nil {
				return err
			}
			if err := e.store.ReplayInsert(t.Table, storage.Handle(ins.Handle), row); err != nil {
				return err
			}
		}
	}
	e.store.RestoreNextHandle(storage.Handle(rec.LastHandle))
	return nil
}

// Checkpoint writes a full database image through the attached log and
// prunes the segments it covers. The image preserves tuple handles (a plain
// SQL dump would reassign them, and the log tail addresses tuples by
// handle); its schema and rule scripts are exactly what Dump emits.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return fmt.Errorf("engine: no write-ahead log attached")
	}
	if e.store.InTxn() {
		return fmt.Errorf("engine: cannot checkpoint during a transaction")
	}
	err := e.wal.WriteCheckpoint(func(cw *wal.CheckpointWriter) error {
		var schema strings.Builder
		if err := dumpTables(&schema, e.store.Catalog()); err != nil {
			return err
		}
		if err := dumpIndexes(&schema, e.store.Catalog()); err != nil {
			return err
		}
		if err := cw.Meta(uint64(e.store.NextHandle())-1, schema.String()); err != nil {
			return err
		}
		cat := e.store.Catalog()
		for _, name := range cat.Names() {
			tuples, err := e.store.Tuples(name)
			if err != nil {
				return err
			}
			for start := 0; start < len(tuples); start += ckptBatch {
				end := start + ckptBatch
				if end > len(tuples) {
					end = len(tuples)
				}
				batch := make([]wal.TupleRec, 0, end-start)
				for _, tup := range tuples[start:end] {
					cells, err := rowToCells(tup.Values)
					if err != nil {
						return err
					}
					batch = append(batch, wal.TupleRec{Handle: uint64(tup.Handle), Row: cells})
				}
				if err := cw.Rows(name, batch); err != nil {
					return err
				}
			}
		}
		var ruleSQL strings.Builder
		if err := dumpRules(&ruleSQL, e.rules); err != nil {
			return err
		}
		return cw.Rules(ruleSQL.String())
	})
	if err != nil {
		return err
	}
	e.stats.Checkpoints++
	// Data is unchanged, but the counters and (after pruning) the WAL
	// stats moved; republish for lock-free Stats readers.
	e.publish()
	return nil
}

// Restore replaces the whole database — data, schema, indexes, rules and
// their Figure 1 state — with a checkpoint image (nil restores the empty
// database): schema script, tuples with their original handles, rule
// script, handle counter. Nothing is logged, so it serves crash recovery
// before the log tail is replayed and a follower re-bootstrapping with its
// log attached. It publishes once; lock-free readers keep whichever
// snapshot they loaded. The engine counters carry over; the storage
// access-path counters (heap scans, index lookups) start again with the
// new store.
func (e *Engine) Restore(ck *wal.Checkpoint) error {
	e.store = storage.New()
	e.rules, e.run, e.touched = &rules.Set{}, nil, e.touched[:0]
	if ck != nil {
		if err := e.applyScript(ck.Meta.Schema); err != nil {
			return fmt.Errorf("engine: checkpoint schema: %w", err)
		}
		for _, batch := range ck.Tables {
			for _, tup := range batch.Tuples {
				row, err := cellsToRow(tup.Row)
				if err != nil {
					return err
				}
				if err := e.store.ReplayInsert(batch.Table, storage.Handle(tup.Handle), row); err != nil {
					return fmt.Errorf("engine: checkpoint rows: %w", err)
				}
			}
		}
		if err := e.applyScript(ck.Rules); err != nil {
			return fmt.Errorf("engine: checkpoint rules: %w", err)
		}
		e.store.RestoreNextHandle(storage.Handle(ck.Meta.LastHandle))
	}
	e.PublishSnapshot()
	return nil
}

// applyScript applies a script of definition statements without logging.
func (e *Engine) applyScript(src string) error {
	stmts, err := sqlparse.ParseStatements(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := e.applyDefinition(st); err != nil {
			return err
		}
	}
	return nil
}
