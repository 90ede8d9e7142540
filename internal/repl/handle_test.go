package repl_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/wire"
)

func dialNode(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPromotedReplicaBatchIsOneTransaction: a promoted replica serves an
// operation-block batch exactly as a primary does — one transaction, one
// rule firing over the composed effect, the SELECT seeing the block's
// earlier insert — not as a script split at the SELECT.
func TestPromotedReplicaBatchIsOneTransaction(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	rc := dialNode(t, r.addr)
	if err := rc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	batch := []string{
		`insert into emp values ('a', 1, 1, 0)`,
		`select count(*) from emp`,
		`insert into emp values ('b', 1, 1, 0)`,
	}
	type outcome struct {
		commits int64
		firings string
		counted any
	}
	run := func(c *client.Client) outcome {
		before, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ExecBatch(batch)
		if err != nil {
			t.Fatalf("ExecBatch: %v", err)
		}
		after, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != 1 || len(res.Results[0].Data) != 1 {
			t.Fatalf("batch results = %v, want one count row", res.Results)
		}
		return outcome{after.Engine.Committed - before.Engine.Committed, fmt.Sprint(res.Firings), res.Results[0].Data[0][0]}
	}
	want := run(dialNode(t, p.addr))
	if want.commits != 1 || want.firings != "[{raise [I:0 D:0 U:2 S:0]}]" || want.counted != int64(1) {
		t.Fatalf("primary batch = %+v, want one transaction, one firing over both rows, count 1", want)
	}
	if got := run(rc); got != want {
		t.Fatalf("promoted replica batch = %+v, primary batch = %+v", got, want)
	}
	var pd, rd string
	var err error
	if pd, err = dialNode(t, p.addr).Dump(); err != nil {
		t.Fatal(err)
	}
	if rd, err = rc.Dump(); err != nil {
		t.Fatal(err)
	}
	if pd != rd {
		t.Fatalf("dumps differ after the same batch:\nprimary:\n%s\npromoted replica:\n%s", pd, rd)
	}
}

func execOn(t *testing.T, c *client.Client, src string) {
	t.Helper()
	if _, err := c.Exec(src); err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
}

// loggedOnce waits for a node to apply through lsn, then checks that it
// never reset and that its log ends exactly at its applied LSN.
func loggedOnce(t *testing.T, what string, stats func() *wire.ReplStats, src *repl.Source, lsn uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%s to apply lsn %d", what, lsn), func() bool { return stats().LSN >= lsn })
	st := stats()
	if st.Resets != 0 || st.DiscardedRecords != 0 {
		t.Fatalf("%s reset %d times (%d records discarded)", what, st.Resets, st.DiscardedRecords)
	}
	if got := src.Stats().LSN; got != st.LSN {
		t.Fatalf("%s applied lsn %d but its log ends at lsn %d", what, st.LSN, got)
	}
}

// The two demotion tests cover the nodes whose database keeps its log
// attached while following: a demoted primary, and a durable follower
// demoted after a promotion. Each must append every streamed record to its
// log exactly once, DDL included: a second append of a replayed
// definition shifts every later LSN, fails the next record and forces a
// reset.

func TestDemotedPrimaryLogsReplayedDDLOnce(t *testing.T) {
	base := t.TempDir()
	p := startChaosPrimary(t, filepath.Join(base, "p"), 0, time.Second)
	f := startChaosFollower(t, p.addr, filepath.Join(base, "f"), 0, time.Second)
	execOn(t, dialNode(t, p.addr), testSchema+`insert into emp values ('a', 1, 1, 0);`)
	loggedOnce(t, "follower", f.fl.ReplStats, f.fl.ReplSource(), p.p.CurrentLSN())

	e, err := f.fl.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.p.Follow(f.addr, e); err != nil {
		t.Fatal(err)
	}
	fc := dialNode(t, f.addr)
	execOn(t, fc, `create table u (x int);`)
	execOn(t, fc, `insert into u values (1);`)
	loggedOnce(t, "demoted primary", p.p.ReplStats, p.p.ReplSource(), f.fl.CurrentLSN())
	if pd, fd := p.dump(t), f.dump(t); pd != fd {
		t.Fatalf("dumps differ:\nleader:\n%s\ndemoted primary:\n%s", fd, pd)
	}
}

func TestPromotedThenDemotedFollowerLogsReplayedDDLOnce(t *testing.T) {
	base := t.TempDir()
	p := startChaosPrimary(t, filepath.Join(base, "p"), 0, time.Second)
	f := startChaosFollower(t, p.addr, filepath.Join(base, "f"), 0, time.Second)
	g := startChaosFollower(t, p.addr, filepath.Join(base, "g"), 0, time.Second)
	execOn(t, dialNode(t, p.addr), testSchema+`insert into emp values ('a', 1, 1, 0);`)
	loggedOnce(t, "follower f", f.fl.ReplStats, f.fl.ReplSource(), p.p.CurrentLSN())

	// f leads epoch e1 and g re-points to it; then g leads e2 and the
	// once-promoted f is demoted under it.
	e1, err := f.fl.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.fl.Follow(f.addr, e1); err != nil {
		t.Fatal(err)
	}
	loggedOnce(t, "follower g", g.fl.ReplStats, g.fl.ReplSource(), f.fl.CurrentLSN())
	e2, err := g.fl.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.fl.Follow(g.addr, e2); err != nil {
		t.Fatal(err)
	}
	gc := dialNode(t, g.addr)
	execOn(t, gc, `create table u (x int);`)
	execOn(t, gc, `insert into u values (1);`)
	loggedOnce(t, "demoted follower", f.fl.ReplStats, f.fl.ReplSource(), g.fl.CurrentLSN())
	if gd, fd := g.dump(t), f.dump(t); gd != fd {
		t.Fatalf("dumps differ:\nleader:\n%s\ndemoted follower:\n%s", gd, fd)
	}
}

// TestFollowerReadsConcurrentWithApply: replica reads take no lock, so
// they run while the stream applies. Each must see one applied commit
// whole — the raise rule's bonus lands in the same record as the insert —
// and a reader never sees the row count go backwards.
func TestFollowerReadsConcurrentWithApply(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	const writes = 40
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := r.fl.Query(`select count(*), sum(bonus) from emp;`)
				if err != nil {
					t.Errorf("replica query: %v", err)
					return
				}
				n, _ := rows.Data[0][0].(int64)
				if sum, _ := rows.Data[0][1].(int64); sum != 100*n {
					t.Errorf("replica read %d rows with bonus sum %d: a commit seen half-applied", n, sum)
					return
				}
				if n < last {
					t.Errorf("replica row count went back from %d to %d", last, n)
					return
				}
				last = n
				var b strings.Builder
				if err := r.fl.Dump(&b); err != nil {
					t.Errorf("replica dump: %v", err)
					return
				}
				_ = r.fl.Stats()
			}
		}()
	}
	for i := 0; i < writes; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('e%d', 1, 1, 0);`, i))
	}
	waitCaughtUp(t, r, p.db.CurrentLSN())
	close(done)
	wg.Wait()
	var b strings.Builder
	if err := r.fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("replica diverged from the primary")
	}
}

// TestPromoteOpensRequestedEpoch: Promote(e) leads in at least epoch e,
// whether the node leads because it was started as the leader or because
// it was promoted from a follower.
func TestPromoteOpensRequestedEpoch(t *testing.T) {
	db, err := sopr.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leader, err := repl.NewLeader(db, repl.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	promoted, err := repl.NewFollower("unused:0", repl.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Promote(0); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*repl.Node{"leader": leader, "promoted follower": promoted} {
		want := n.Epoch() + 5
		got, err := n.Promote(want)
		if err != nil || got != want {
			t.Errorf("%s: Promote(%d) = %d, %v; want %d", name, want, got, err, want)
		}
		if again, err := n.Promote(want); err != nil || again != want {
			t.Errorf("%s: repeated Promote(%d) = %d, %v; want %d", name, want, again, err, want)
		}
	}
}

// TestRefreshDemotesFencedExFollower: a follower that was promoted and
// then fenced reports itself as a fenced leader, so a cluster refresh
// demotes it under the real leader — as it does a fenced node that was
// started as the leader — instead of leaving it fenced and streaming from
// its upstream from before the promotion.
func TestRefreshDemotesFencedExFollower(t *testing.T) {
	base := t.TempDir()
	p := startChaosPrimary(t, filepath.Join(base, "p"), 0, time.Second)
	f := startChaosFollower(t, p.addr, filepath.Join(base, "f"), 0, time.Second)
	g := startChaosFollower(t, p.addr, filepath.Join(base, "g"), 0, time.Second)
	execOn(t, dialNode(t, p.addr), testSchema+`insert into emp values ('a', 1, 1, 0);`)
	loggedOnce(t, "follower f", f.fl.ReplStats, f.fl.ReplSource(), p.p.CurrentLSN())
	loggedOnce(t, "follower g", g.fl.ReplStats, g.fl.ReplSource(), p.p.CurrentLSN())

	// f leads e1, and g and p follow it.
	e1, err := f.fl.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.fl.Follow(f.addr, e1); err != nil {
		t.Fatal(err)
	}
	if err := p.p.Follow(f.addr, e1); err != nil {
		t.Fatal(err)
	}
	execOn(t, dialNode(t, f.addr), `insert into emp values ('b', 2, 2, 0);`)
	loggedOnce(t, "follower g", g.fl.ReplStats, g.fl.ReplSource(), f.fl.CurrentLSN())

	// g leads e2 and p follows it; f learns of e2 and is fenced.
	e2, err := g.fl.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.p.Follow(g.addr, e2); err != nil {
		t.Fatal(err)
	}
	f.fl.ObserveEpoch(e2)
	execOn(t, dialNode(t, g.addr), `insert into emp values ('c', 3, 3, 0);`)

	cl, err := client.DialCluster([]string{p.addr, f.addr, g.addr}, client.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "fenced ex-follower demoted under the new leader", func() bool {
		cl.Refresh()
		st := f.fl.ReplStats()
		return !st.Fenced && st.Leader == g.addr && st.LSN >= g.fl.CurrentLSN()
	})
	if gd, fd := g.dump(t), f.dump(t); gd != fd {
		t.Fatalf("dumps differ:\nleader:\n%s\ndemoted ex-follower:\n%s", gd, fd)
	}
}
