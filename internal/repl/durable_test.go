// Durable-follower lifecycle tests: local WAL recovery across restarts,
// the reset-and-rebootstrap path when histories diverge, and the idle-ack
// timer that keeps the primary's retention pin moving.
package repl_test

import (
	"strings"
	"testing"
	"time"

	"sopr"
	"sopr/internal/repl"
	"sopr/internal/server"
)

// startReplicaDir is startReplica with a data directory: the follower
// persists the stream into its own WAL and recovers from it at startup.
func startReplicaDir(t *testing.T, primaryAddr, dir string) *replica {
	t.Helper()
	fl, err := repl.NewFollower(primaryAddr, repl.Config{
		DataDir:      dir,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	go fl.Run()
	srv := server.New(fl, server.Config{ReplWaitTimeout: 500 * time.Millisecond})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	r := &replica{addr: ln.Addr().String(), fl: fl, srv: srv}
	t.Cleanup(func() { r.stop(t) })
	return r
}

// TestDurableFollowerRestartResumesLocally: a restarted durable follower
// recovers its applied position from its own WAL before touching the
// network, then resumes the stream from there — no reset, no re-bootstrap.
func TestDurableFollowerRestartResumesLocally(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 5; i++ {
		p.exec(t, `insert into emp values ('e`+string(rune('0'+i))+`', 1, 1000, 0);`)
	}
	fdir := t.TempDir()
	r := startReplicaDir(t, p.addr, fdir)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	applied := r.fl.AppliedLSN()
	if st := r.fl.ReplStats(); !st.Durable {
		t.Fatalf("follower with a data dir reports Durable=false: %+v", st)
	}
	r.stop(t)

	p.exec(t, `insert into emp values ('late', 9, 9, 0);`) // written while the follower was down

	// Recovery happens in NewFollower, before Run ever dials: the applied
	// position must already be there.
	fl, err := repl.NewFollower(p.addr, repl.Config{
		DataDir:      fdir,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer fl.Close()
	if got := fl.AppliedLSN(); got != applied {
		t.Fatalf("recovered applied = %d, want %d (local WAL replay)", got, applied)
	}
	go fl.Run()
	waitFor(t, "restarted follower to catch up", func() bool {
		return fl.AppliedLSN() >= p.db.CurrentLSN()
	})
	if st := fl.ReplStats(); st.Resets != 0 {
		t.Fatalf("restarted durable follower reset %d times; it should resume from its WAL", st.Resets)
	}
	var b strings.Builder
	if err := fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("restarted durable follower diverged from primary")
	}
}

// TestFollowerResetAndRebootstrap: a follower whose applied history the
// source does not share (here: the primary's data dir was replaced with a
// shorter history on the same address) must discard everything — old
// engine, local WAL — and rebuild from the source's checkpoint, ending
// byte-identical. The discard is loud: Resets and DiscardedRecords count
// it in stats.
func TestFollowerResetAndRebootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 5; i++ {
		p.exec(t, `insert into emp values ('old', 1, 1, 0);`)
	}
	r := startReplicaDir(t, p.addr, t.TempDir())
	waitCaughtUp(t, r, p.db.CurrentLSN())
	applied := r.fl.AppliedLSN()

	// Replace the primary wholesale: same address, fresh shorter history.
	addr := p.addr
	p.stop(t)
	p2 := restartPrimary(t, t.TempDir(), addr)
	p2.exec(t, testSchema)
	p2.exec(t, `insert into emp values ('new', 2, 2, 0);`)
	if p2.db.CurrentLSN() >= applied {
		t.Fatalf("new history too long (%d >= %d); divergence not exercised", p2.db.CurrentLSN(), applied)
	}

	waitFor(t, "follower to reset against the replaced history", func() bool {
		return r.fl.ReplStats().Resets >= 1
	})
	waitCaughtUp(t, r, p2.db.CurrentLSN())
	st := r.fl.ReplStats()
	if st.DiscardedRecords < int64(applied) {
		t.Fatalf("discarded %d records, want >= %d (the whole diverged history)", st.DiscardedRecords, applied)
	}
	// The rebuilt engine is byte-identical to the new primary; nothing of
	// the old engine leaks through.
	var b strings.Builder
	if err := r.fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), p2.dump(t); got != want {
		t.Fatalf("rebootstrapped follower diverges:\n--- primary ---\n%s\n--- follower ---\n%s", want, got)
	}
	if strings.Contains(b.String(), "'old'") {
		t.Fatal("old engine's rows leaked into the rebootstrapped state")
	}
}

// TestIdleAckReleasesRetentionPromptly: when the stream goes idle right
// after a burst, the follower's timer must still deliver the final ack —
// otherwise the primary's retention pin (MinFollowerLSN) sticks at the
// previous ack until the next record or heartbeat arrives. The heartbeat
// here is far longer than the assertion window, so only the ack timer can
// satisfy it.
func TestIdleAckReleasesRetentionPromptly(t *testing.T) {
	db, err := sopr.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leader, err := repl.NewLeader(db, repl.Config{Heartbeat: 30 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src := leader.ReplSource()
	srv := server.New(leader, server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() { _ = ln.Close() }()

	fl, err := repl.NewFollower(ln.Addr().String(), repl.Config{
		ReconnectMin:  10 * time.Millisecond,
		ReconnectMax:  250 * time.Millisecond,
		AckInterval:   20 * time.Millisecond,
		StreamTimeout: 60 * time.Second, // outlast the silent heartbeat
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	go fl.Run()

	if _, err := leader.Exec(testSchema); err != nil {
		t.Fatal(err)
	}
	// A quick burst, then silence: the final LSN's ack can only come from
	// the idle timer.
	for i := 0; i < 5; i++ {
		if _, err := leader.Exec(`insert into emp values ('burst', 1, 1, 0);`); err != nil {
			t.Fatal(err)
		}
	}
	last := db.CurrentLSN()
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		if st := src.Stats(); st.MinFollowerLSN >= last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention pin stuck: MinFollowerLSN %d, want %d (idle ack never arrived)",
				src.Stats().MinFollowerLSN, last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle ack took %v; the timer should deliver it in milliseconds", elapsed)
	}
}
