// Durability tests: OpenDurable round trips, checkpoints, and the
// crash-recovery property test from the fault-injection harness — a
// randomized rule-triggering workload applied in lockstep to a durable
// database (on a fault-injected filesystem) and an in-memory shadow,
// crashed at a random byte, recovered, and compared dump-for-dump.
package sopr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sopr/internal/wal"
)

// durSchema is a rule-rich starting point: a cascading delete, a salary
// floor maintained by an update rule, and a rollback guard (Section 2's
// examples, roughly).
const durSchema = `
	create table emp (name varchar, emp_no int not null, salary float, dept_no int);
	create table dept (dept_no int, mgr_no int);
	create index emp_dept on emp (dept_no);
	create rule cascade when deleted from dept
	then delete from emp where dept_no in (select dept_no from deleted dept)
	end;
	create rule floor when inserted into emp
	then update emp set salary = 40
		where emp_no in (select emp_no from inserted emp) and salary < 40 and salary >= 0
	end;
	create rule guard when inserted into emp
	if exists (select * from inserted emp where salary < 0)
	then rollback;
`

func mustDump(t *testing.T, db *DB) string {
	t.Helper()
	s, err := db.DumpString()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	return s
}

func TestOpenDurableRoundTrip(t *testing.T) {
	dir := t.TempDir() // the real filesystem, end to end
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if db.Recovered() {
		t.Fatal("fresh directory reported prior state")
	}
	db.MustExec(durSchema)
	db.MustExec(`insert into dept values (1, 100), (2, 200)`)
	db.MustExec(`insert into emp values ('jane', 1, 60, 1), ('sue', 2, 10, 2)`) // floor fires for sue
	res := db.MustExec(`delete from dept where dept_no = 2`)                    // cascade fires
	if len(res.Firings) == 0 {
		t.Fatal("cascade did not fire; workload is not exercising rules")
	}
	want := mustDump(t, db)
	st := db.Stats()
	if st.WALAppends == 0 || st.WALBytes == 0 {
		t.Fatalf("no WAL activity recorded: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !db2.Recovered() || db2.Recovery().RecordsReplayed == 0 {
		t.Fatalf("reopen did not recover: %+v", db2.Recovery())
	}
	if got := mustDump(t, db2); got != want {
		t.Fatalf("recovered state diverges:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if got := db2.Stats().RecoveredRecords; got == 0 {
		t.Fatal("RecoveredRecords not counted")
	}
	// The recovered database keeps working, rules included.
	res = db2.MustExec(`insert into emp values ('low', 9, 5, 1)`)
	if len(res.Firings) != 1 || res.Firings[0].Rule != "floor" {
		t.Fatalf("rules dead after recovery: %+v", res)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.MustExec(durSchema)
	db.MustExec(`insert into dept values (1, 100)`)
	db.MustExec(`insert into emp values ('jane', 1, 60, 1), ('bob', 2, 50, 1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := db.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints stat = %d", got)
	}
	// Post-checkpoint traffic addresses pre-checkpoint tuples by handle:
	// replay works only if the checkpoint preserved them.
	db.MustExec(`update emp set salary = salary + 1 where name = 'jane'`)
	db.MustExec(`delete from emp where name = 'bob'`)
	want := mustDump(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := db2.Recovery()
	if !rec.CheckpointLoaded {
		t.Fatalf("checkpoint not loaded: %+v", rec)
	}
	if rec.RecordsReplayed != 2 {
		t.Fatalf("replayed %d records, want the 2 post-checkpoint ones", rec.RecordsReplayed)
	}
	if got := mustDump(t, db2); got != want {
		t.Fatalf("checkpoint recovery diverges:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// A second reopen right away replays from the same checkpoint again.
	db2.Close()
	db3, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer db3.Close()
	if got := mustDump(t, db3); got != want {
		t.Fatal("second recovery diverges")
	}
}

func TestRolledBackTransactionsNotLogged(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.MustExec(durSchema)
	before := db.Stats().WALAppends
	res := db.MustExec(`insert into emp values ('bad', 1, -5, 1)`) // guard rolls back
	if !res.RolledBack {
		t.Fatalf("guard did not roll back: %+v", res)
	}
	if got := db.Stats().WALAppends; got != before {
		t.Fatalf("rolled-back transaction appended to the log (%d -> %d)", before, got)
	}
	want := mustDump(t, db)
	db.Close()
	db2, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := mustDump(t, db2); got != want {
		t.Fatal("recovery diverges after rollback")
	}
}

// TestDurableRollbackKeepsScanOrder: a rolled-back transaction leaves the
// heap in its pre-transaction order, which is also the order recovery
// rebuilds from the log. The delete swap-removes 1 (3 moves into its slot);
// the failing insert rolls the transaction back. Scan order is observable
// through an unordered select, so the live database, the same database
// after Close and the reopened one must all read 1 2 3 4.
func TestDurableRollbackKeepsScanOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.MustExec(`create table t (a int); insert into t values (1), (2), (3)`)
	if _, err := db.Exec(`delete from t where a = 1; insert into t values (1, 2)`); err == nil {
		t.Fatal("arity error did not fail the transaction")
	}
	db.MustExec(`insert into t values (4)`)
	scan := func(db *DB) string {
		t.Helper()
		return fmt.Sprint(db.MustQuery(`select a from t`).Data)
	}
	const want = "[[1] [2] [3] [4]]"
	if got := scan(db); got != want {
		t.Errorf("live scan order %s, want %s", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := scan(db); got != want {
		t.Errorf("scan order after close %s, want %s", got, want)
	}
	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := scan(db2); got != want {
		t.Errorf("recovered scan order %s, want %s", got, want)
	}
}

// TestRuleScopeChangeSurvivesReopen: a scope change is the ALTER RULE ...
// SCOPE definition statement, logged like any other rule DDL, so a
// reopened database dumps identically — with the change in the log tail
// and again inside a checkpoint image.
func TestRuleScopeChangeSurvivesReopen(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.MustExec(`create table t (a int);
		create rule r scope since considered when inserted into t then delete from t where a < 0 end;
		create rule s when inserted into t then update t set a = 0 where a > 100 end`)
	if err := db.SetRuleScope("r", SinceTriggered); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`alter rule s scope since considered`)
	want := mustDump(t, db)
	if !strings.Contains(want, "CREATE RULE r SCOPE SINCE TRIGGERED") || !strings.Contains(want, "CREATE RULE s SCOPE SINCE CONSIDERED") {
		t.Fatalf("dump lacks the scope changes:\n%s", want)
	}
	reopen := func(db *DB) *DB {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenDurable("data", WithFS(mem))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return db2
	}
	db = reopen(db)
	if got := mustDump(t, db); got != want {
		t.Fatalf("scope change lost on reopen:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if err := db.SetRuleScope("r", SinceAction); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = mustDump(t, db)
	db = reopen(db)
	defer db.Close()
	if got := mustDump(t, db); got != want {
		t.Fatalf("scope change lost through a checkpoint:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestOpenDurableRefusesCorruptLog(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := OpenDurable("data", WithFS(mem), withSegmentSize(64))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.MustExec(`create table t (a int)`)
	for i := 0; i < 6; i++ {
		db.MustExec(fmt.Sprintf(`insert into t values (%d)`, i))
	}
	db.Close()
	// Corrupt a NON-final segment: that is a hole, not a tear, and serving
	// from it would silently lose committed data.
	names, err := mem.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			segs = append(segs, n)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v", segs)
	}
	f, err := mem.OpenAppend("data/" + segs[0])
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff}) //nolint:errcheck // test corruption
	f.Close()
	if _, err := OpenDurable("data", WithFS(mem)); err == nil {
		t.Fatal("OpenDurable served from a log with a mid-stream hole")
	}
}

// crashWorkload is one deterministic randomized trial: grow a durable DB
// and an in-memory shadow in lockstep until the injected crash fires (or
// the workload ends), then recover and compare.
func crashWorkload(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)

	dur, err := OpenDurable("data", WithFS(ffs), withSegmentSize(512))
	if err != nil {
		t.Fatalf("seed %d: OpenDurable: %v", seed, err)
	}
	shadow := Open()
	dur.MustExec(durSchema)
	shadow.MustExec(durSchema)

	// Everything before this point is safe; the crash lands somewhere in
	// the next few thousand log bytes (sometimes past the end: a clean run).
	ffs.CrashAtByte = int64(1 + rng.Intn(6000))

	crashed := false
	isCrash := func(err error) bool {
		return errors.Is(err, wal.ErrInjected) || errors.Is(err, wal.ErrLogFailed)
	}
	for op := 0; op < 80 && !crashed; op++ {
		var stmt string
		switch k := rng.Intn(10); {
		case k < 4:
			stmt = fmt.Sprintf(`insert into emp values ('e%d', %d, %d, %d)`,
				op, 1000+op, rng.Intn(120)-10, 1+rng.Intn(3)) // salaries below 40 and 0 trigger floor/guard
		case k < 5:
			stmt = fmt.Sprintf(`insert into dept values (%d, %d)`, 1+rng.Intn(3), op)
		case k < 7:
			stmt = fmt.Sprintf(`update emp set salary = salary + %d where dept_no = %d`, rng.Intn(9)+1, 1+rng.Intn(3))
		case k < 8:
			stmt = fmt.Sprintf(`delete from emp where emp_no = %d`, 1000+rng.Intn(op+1))
		case k < 9:
			stmt = fmt.Sprintf(`delete from dept where dept_no = %d`, 1+rng.Intn(3)) // cascade
		default:
			stmt = fmt.Sprintf(`create table side%d (x int)`, op) // DDL in the stream
		}
		res, err := dur.Exec(stmt)
		if err != nil {
			if !isCrash(err) {
				t.Fatalf("seed %d op %d: unexpected failure %q: %v", seed, op, stmt, err)
			}
			crashed = true
			break
		}
		// Acknowledged by the durable side: the shadow must agree.
		sres, serr := shadow.Exec(stmt)
		if serr != nil {
			t.Fatalf("seed %d op %d: shadow rejected %q: %v", seed, op, stmt, serr)
		}
		if res.RolledBack != sres.RolledBack || len(res.Firings) != len(sres.Firings) {
			t.Fatalf("seed %d op %d: engines diverged on %q: %+v vs %+v", seed, op, stmt, res, sres)
		}
		if op%17 == 16 {
			if err := dur.Checkpoint(); err != nil {
				if !isCrash(err) {
					t.Fatalf("seed %d op %d: checkpoint: %v", seed, op, err)
				}
				crashed = true
			}
		}
	}
	dur.Close() //nolint:errcheck // the log may already be dead

	// The machine reboots: unsynced bytes are gone, then a fresh process
	// recovers from what fsync made durable.
	mem.DropUnsynced()
	rec, err := OpenDurable("data", WithFS(mem), withSegmentSize(512))
	if err != nil {
		t.Fatalf("seed %d (crashed=%v): recovery failed: %v", seed, crashed, err)
	}
	defer rec.Close()
	want, got := mustDump(t, shadow), mustDump(t, rec)
	if got != want {
		t.Fatalf("seed %d (crashed=%v): recovered state diverges from shadow\n--- shadow ---\n%s\n--- recovered ---\n%s",
			seed, crashed, want, got)
	}
	// And the recovered instance still takes writes.
	if _, err := rec.Exec(`insert into dept values (9, 9)`); err != nil {
		t.Fatalf("seed %d: recovered database rejects writes: %v", seed, err)
	}
}

// TestCrashRecoveryProperty is the fault-injection harness's main theorem:
// for any crash point, recovery reproduces exactly the acknowledged
// transactions — with FsyncAlways, nothing more and nothing less. Run with
// -race (CI does).
func TestCrashRecoveryProperty(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for seed := 0; seed < trials; seed++ {
		crashWorkload(t, int64(seed))
	}
}

// crashGroupWorkload is one randomized crash-mid-group trial: 8 concurrent
// committers (a mix of single Execs and multi-statement ExecBatch blocks)
// drive a SynchronizedDB whose commits share group-commit fsyncs, the disk
// crashes at a random byte, and recovery must satisfy, per committer,
// acked ⊆ recovered ⊆ submitted — a leader must never have acknowledged a
// follower beyond what its fsync actually covered.
func crashGroupWorkload(t *testing.T, seed int64) {
	const (
		workers = 8
		perW    = 24
	)
	rng := rand.New(rand.NewSource(seed))
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	dur, err := OpenDurable("data", WithFS(ffs), withSegmentSize(1024))
	if err != nil {
		t.Fatalf("seed %d: OpenDurable: %v", seed, err)
	}
	sdb := Synchronized(dur)
	sdb.MustExec(`create table g (worker int, seq int)`)
	ffs.CrashAtByte = int64(1 + rng.Intn(8000))

	isCrash := func(err error) bool {
		return errors.Is(err, wal.ErrInjected) || errors.Is(err, wal.ErrLogFailed)
	}
	acked := make([]int, workers)     // highest seq whose txn was acknowledged
	submitted := make([]int, workers) // highest seq ever sent
	fatal := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, batchy bool) {
			defer wg.Done()
			seq := 0
			for seq < perW {
				var stmts []string
				n := 1
				if batchy && seq%3 == 0 {
					n = 2 + seq%2 // a 2- or 3-statement batch block
				}
				for i := 0; i < n && seq+i < perW; i++ {
					stmts = append(stmts, fmt.Sprintf(`insert into g values (%d, %d)`, w, seq+i+1))
				}
				submitted[w] = seq + len(stmts)
				var err error
				if len(stmts) == 1 {
					_, err = sdb.Exec(stmts[0])
				} else {
					_, err = sdb.ExecBatch(stmts)
				}
				if err != nil {
					if !isCrash(err) {
						fatal <- fmt.Errorf("seed %d worker %d seq %d: %v", seed, w, seq, err)
					}
					return
				}
				seq += len(stmts)
				acked[w] = seq
			}
		}(w, w%2 == 0)
	}
	wg.Wait()
	close(fatal)
	for err := range fatal {
		t.Fatal(err)
	}
	sdb.Close() //nolint:errcheck // the log may already be dead

	mem.DropUnsynced()
	rec, err := OpenDurable("data", WithFS(mem), withSegmentSize(1024))
	if err != nil {
		t.Fatalf("seed %d: recovery failed: %v", seed, err)
	}
	defer rec.Close()
	for w := 0; w < workers; w++ {
		rows, err := rec.Query(fmt.Sprintf(`select seq from g where worker = %d`, w))
		if err != nil {
			t.Fatalf("seed %d: query worker %d: %v", seed, w, err)
		}
		got := make(map[int64]bool, len(rows.Data))
		for _, r := range rows.Data {
			got[r[0].(int64)] = true
		}
		k := len(got)
		if k != len(rows.Data) {
			t.Fatalf("seed %d worker %d: duplicate seqs recovered", seed, w)
		}
		// Per-worker transactions are sequential and recovery replays a
		// byte prefix of the log, so the recovered seqs must be exactly
		// 1..k with acked <= k <= submitted.
		if k < acked[w] || k > submitted[w] {
			t.Fatalf("seed %d worker %d: recovered %d txns, acked %d, submitted %d — "+
				"an acknowledgement outran its fsync", seed, w, k, acked[w], submitted[w])
		}
		for s := 1; s <= k; s++ {
			if !got[int64(s)] {
				t.Fatalf("seed %d worker %d: recovered %d txns but seq %d missing (hole)", seed, w, k, s)
			}
		}
	}
}

// TestCrashRecoveryMidGroupCommit crashes the disk while concurrent
// committers are parked on shared group-commit fsyncs, across many seeds.
// Run with -race (CI does).
func TestCrashRecoveryMidGroupCommit(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for seed := 0; seed < trials; seed++ {
		crashGroupWorkload(t, int64(seed))
	}
}

func TestSynchronizedDurable(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := OpenDurable("data", WithFS(mem))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	s := Synchronized(db)
	if s.Recovered() {
		t.Fatal("fresh dir recovered")
	}
	s.MustExec(`create table t (a int); insert into t values (1)`)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Exec(`insert into t values (2)`); err == nil {
		t.Fatal("exec after Close succeeded")
	}
}
