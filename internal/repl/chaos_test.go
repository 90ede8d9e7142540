// Partition/chaos harness for consensus-grade failover. A 4-node cluster
// — durable primary P behind a severable TCP link, durable followers A
// and B, in-memory follower C — is driven through a full partition
// lifecycle under a write storm:
//
//	storm → sever P → zombie degraded writes → failover (epoch 1) →
//	storm → fence the zombie → heal → demote P → converge
//
// The acceptance invariants, asserted at each phase boundary:
//
//   - no write acknowledged with Synced=true is ever lost;
//   - no two nodes accept writes in the same epoch (the zombie's writes
//     all carry epoch 0, the new leader's epoch 1, and once fenced the
//     zombie refuses with the typed error);
//   - every survivor — including the truncated ex-primary — converges to
//     a byte-identical dump.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
)

// linkProxy is a severable TCP link: it forwards byte streams to target
// until sever(), which kills every live session and refuses new ones
// (accept-then-close, the shape of a partitioned peer) until heal().
type linkProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{}
}

func startLinkProxy(t *testing.T, target string) *linkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lp := &linkProxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	go lp.run()
	t.Cleanup(func() {
		ln.Close()
		lp.sever() // kill whatever is still flowing
	})
	return lp
}

func (lp *linkProxy) addr() string { return lp.ln.Addr().String() }

func (lp *linkProxy) sever() {
	lp.mu.Lock()
	lp.severed = true
	for c := range lp.conns {
		c.Close()
		delete(lp.conns, c)
	}
	lp.mu.Unlock()
}

func (lp *linkProxy) heal() {
	lp.mu.Lock()
	lp.severed = false
	lp.mu.Unlock()
}

func (lp *linkProxy) run() {
	for {
		down, err := lp.ln.Accept()
		if err != nil {
			return
		}
		lp.mu.Lock()
		if lp.severed {
			lp.mu.Unlock()
			down.Close()
			continue
		}
		lp.mu.Unlock()
		go lp.session(down)
	}
}

func (lp *linkProxy) session(down net.Conn) {
	up, err := net.Dial("tcp", lp.target)
	if err != nil {
		down.Close()
		return
	}
	lp.mu.Lock()
	if lp.severed {
		lp.mu.Unlock()
		down.Close()
		up.Close()
		return
	}
	lp.conns[down] = struct{}{}
	lp.conns[up] = struct{}{}
	lp.mu.Unlock()
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		_, _ = io.Copy(dst, src)
		done <- struct{}{}
	}
	go cp(up, down)
	go cp(down, up)
	<-done // either direction failing kills the link
	lp.mu.Lock()
	delete(lp.conns, down)
	delete(lp.conns, up)
	lp.mu.Unlock()
	down.Close()
	up.Close()
}

// chaosNode is one server-fronted repl.Node: p is set on a node started
// as the leader, fl on one started as a follower.
type chaosNode struct {
	addr string
	p    *repl.Node
	fl   *repl.Node
	srv  *server.Server
}

func (n *chaosNode) dump(t *testing.T) string {
	t.Helper()
	c, err := client.Dial(n.addr)
	if err != nil {
		t.Fatalf("dial %s: %v", n.addr, err)
	}
	defer c.Close()
	s, err := c.Dump()
	if err != nil {
		t.Fatalf("dump %s: %v", n.addr, err)
	}
	return s
}

func startChaosPrimary(t *testing.T, dir string, syncFollowers int, syncTimeout time.Duration) *chaosNode {
	t.Helper()
	db, err := sopr.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repl.NewLeader(db, repl.Config{
		SyncFollowers: syncFollowers,
		SyncTimeout:   syncTimeout,
		Heartbeat:     25 * time.Millisecond,
		ReconnectMin:  10 * time.Millisecond,
		ReconnectMax:  200 * time.Millisecond,
		AckInterval:   10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(p, server.Config{ReplWaitTimeout: 2 * time.Second})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	n := &chaosNode{addr: ln.Addr().String(), p: p, srv: srv}
	t.Cleanup(func() { stopChaosNode(t, n) })
	return n
}

// startChaosFollower boots a follower of upstream; dir != "" makes it
// durable (its own WAL, promotable into a stream source).
func startChaosFollower(t *testing.T, upstream, dir string, syncFollowers int, syncTimeout time.Duration) *chaosNode {
	t.Helper()
	fl, err := repl.NewFollower(upstream, repl.Config{
		DataDir:       dir,
		SyncFollowers: syncFollowers,
		SyncTimeout:   syncTimeout,
		Heartbeat:     25 * time.Millisecond,
		ReconnectMin:  10 * time.Millisecond,
		ReconnectMax:  200 * time.Millisecond,
		AckInterval:   10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go fl.Run()
	srv := server.New(fl, server.Config{ReplWaitTimeout: 2 * time.Second})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	n := &chaosNode{addr: ln.Addr().String(), fl: fl, srv: srv}
	t.Cleanup(func() { stopChaosNode(t, n) })
	return n
}

func stopChaosNode(t *testing.T, n *chaosNode) {
	t.Helper()
	if n.srv == nil {
		return
	}
	shutdownServer(t, n.srv)
	if n.p != nil {
		_ = n.p.Close()
	}
	if n.fl != nil {
		n.fl.Close()
	}
	n.srv = nil
}

func shutdownServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

func TestPartitionFailoverChaos(t *testing.T) {
	base := t.TempDir()
	const syncTimeout = 500 * time.Millisecond

	p := startChaosPrimary(t, filepath.Join(base, "p"), 2, syncTimeout)
	lp := startLinkProxy(t, p.addr) // every peer reaches P through this link
	a := startChaosFollower(t, lp.addr(), filepath.Join(base, "a"), 1, syncTimeout)
	b := startChaosFollower(t, lp.addr(), filepath.Join(base, "b"), 1, syncTimeout)
	c := startChaosFollower(t, lp.addr(), "", 0, 0) // in-memory: cannot lead durably

	cl, err := client.DialCluster([]string{lp.addr(), a.addr, b.addr, c.addr}, client.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Schema, then wait for the full fan-in before the storm: synchronous
	// commit needs the followers connected and acking.
	if _, err := cl.Exec(`create table kv (k string, v int);`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three followers connected and caught up", func() bool {
		want := p.p.CurrentLSN()
		return a.fl.AppliedLSN() >= want && b.fl.AppliedLSN() >= want && c.fl.AppliedLSN() >= want
	})

	// Phase 1: write storm under sync-commit (N=2). Every ack must carry
	// Synced=true and epoch 0 — P is the only accepting node.
	syncedKeys := []string{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("pre%d", i)
		res, err := cl.Exec(fmt.Sprintf(`insert into kv values ('%s', %d);`, k, i))
		if err != nil {
			t.Fatalf("storm write %d: %v", i, err)
		}
		if !res.Synced {
			t.Fatalf("storm write %d not synced with 3 live followers (sync-followers=2)", i)
		}
		if res.Epoch != 0 {
			t.Fatalf("pre-partition write carries epoch %d, want 0", res.Epoch)
		}
		syncedKeys = append(syncedKeys, k)
	}

	// Phase 2: partition P away from everything. A client still on the
	// zombie's side keeps getting acks — but degraded ones (Synced=false):
	// no follower can confirm, so after the sync timeout the commit
	// downgrades and says so.
	lp.sever()
	zc, err := client.Dial(p.addr) // the minority-side client dials P directly
	if err != nil {
		t.Fatal(err)
	}
	defer zc.Close()
	for i := 0; i < 2; i++ {
		res, err := zc.Exec(fmt.Sprintf(`insert into kv values ('zombie%d', %d);`, i, i))
		if err != nil {
			t.Fatalf("zombie write %d: %v", i, err)
		}
		if res.Synced {
			t.Fatalf("zombie write %d reported synced with every follower severed", i)
		}
		if res.Epoch != 0 {
			t.Fatalf("zombie write carries epoch %d, want 0", res.Epoch)
		}
	}
	if st := p.p.ReplStats(); st.SyncTimeouts == 0 {
		t.Fatalf("no sync timeout recorded on the partitioned primary: %+v", st)
	}

	// Phase 3: the majority side fails over. The cluster promotes the best
	// durable follower into epoch 1 and re-points the survivors at it.
	res, err := cl.Exec(`insert into kv values ('post0', 0);`)
	if err != nil {
		t.Fatalf("first write after partition: %v", err)
	}
	if res.Epoch != 1 {
		t.Fatalf("post-failover write carries epoch %d, want 1", res.Epoch)
	}
	leaderAddr, epoch := cl.Leader()
	if epoch != 1 {
		t.Fatalf("cluster epoch after failover = %d, want 1", epoch)
	}
	var leader, sibling *chaosNode
	switch {
	case a.fl.Promoted() && !b.fl.Promoted():
		leader, sibling = a, b
	case b.fl.Promoted() && !a.fl.Promoted():
		leader, sibling = b, a
	default:
		t.Fatalf("promoted: a=%v b=%v, want exactly one durable follower promoted",
			a.fl.Promoted(), b.fl.Promoted())
	}
	if c.fl.Promoted() {
		t.Fatal("in-memory follower was promoted over a durable sibling")
	}
	if leaderAddr != leader.addr {
		t.Fatalf("cluster leader %s, promoted node %s", leaderAddr, leader.addr)
	}
	syncedKeys = append(syncedKeys, "post0") // durable on the new leader even if ack raced the re-point

	// The re-pointed survivors resume from their applied LSN against the
	// new leader — no re-bootstrap, no divergence.
	waitFor(t, "siblings re-pointed at the new leader", func() bool {
		return sibling.fl.Leader() == leader.addr && c.fl.Leader() == leader.addr &&
			sibling.fl.AppliedLSN() >= leader.fl.CurrentLSN() &&
			c.fl.AppliedLSN() >= leader.fl.CurrentLSN()
	})
	if st := sibling.fl.ReplStats(); st.Resets != 0 {
		t.Fatalf("re-pointed durable sibling reset %d times; it shares the leader's history", st.Resets)
	}

	// Storm continues in epoch 1, synchronous again (N=1 on the leader).
	for i := 1; i <= 10; i++ {
		k := fmt.Sprintf("post%d", i)
		res, err := cl.Exec(fmt.Sprintf(`insert into kv values ('%s', %d);`, k, i))
		if err != nil {
			t.Fatalf("post-failover write %d: %v", i, err)
		}
		if res.Epoch != 1 {
			t.Fatalf("post-failover write %d carries epoch %d, want 1", i, res.Epoch)
		}
		if !res.Synced {
			t.Fatalf("post-failover write %d not synced; siblings are re-pointed and caught up", i)
		}
		syncedKeys = append(syncedKeys, k)
	}

	// Phase 4: a write carrying the cluster's epoch reaches the zombie —
	// it must fence itself and answer the typed error, and stay fenced for
	// epoch-less writers too. No node but the leader accepts in epoch 1.
	_, err = zc.ExecAt(`insert into kv values ('fenced', 1);`, cl.Epoch())
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != client.CodeFenced {
		t.Fatalf("epoch-carrying write to zombie = %v, want remote %s", err, client.CodeFenced)
	}
	if re.Epoch != 1 {
		t.Fatalf("fenced error carries epoch %d, want 1", re.Epoch)
	}
	if _, err := zc.Exec(`insert into kv values ('fenced2', 1);`); !client.IsRemote(err, client.CodeFenced) {
		t.Fatalf("write to fenced zombie = %v, want remote %s", err, client.CodeFenced)
	}
	if st := p.p.ReplStats(); !st.Fenced {
		t.Fatalf("zombie stats not fenced: %+v", st)
	}

	// Phase 5: heal the link. Refresh discovers the returning ex-primary
	// and demotes it under the leader; its zombie suffix (two accepted but
	// never-synced writes) is truncated — loudly — and it re-bootstraps.
	lp.heal()
	waitFor(t, "healed ex-primary demoted under the new leader", func() bool {
		cl.Refresh()
		st := p.p.ReplStats()
		return st.Role == "replica" && st.Leader == leader.addr
	})
	waitFor(t, "demoted ex-primary caught up to the leader", func() bool {
		st := p.p.ReplStats()
		return st.Connected && p.p.CurrentLSN() >= leader.fl.CurrentLSN()
	})
	if st := p.p.ReplStats(); st.Resets == 0 || st.DiscardedRecords == 0 {
		t.Fatalf("returning primary kept its zombie suffix: resets=%d discarded=%d",
			st.Resets, st.DiscardedRecords)
	}

	// Final write sweeps every survivor to one LSN, then: byte-identical
	// dumps on all four nodes.
	res, err = cl.Exec(`insert into kv values ('final', 1);`)
	if err != nil {
		t.Fatal(err)
	}
	syncedKeys = append(syncedKeys, "final")
	waitFor(t, "all four nodes at the final LSN", func() bool {
		return p.p.CurrentLSN() >= res.LSN && sibling.fl.AppliedLSN() >= res.LSN &&
			c.fl.AppliedLSN() >= res.LSN && leader.fl.CurrentLSN() >= res.LSN
	})
	want := leader.dump(t)
	for _, n := range []*chaosNode{p, sibling, c} {
		if got := n.dump(t); got != want {
			t.Errorf("node %s diverged from leader:\n--- leader ---\n%s\n--- node ---\n%s", n.addr, want, got)
		}
	}

	// No acknowledged-synchronous write was lost across the whole run...
	for _, k := range syncedKeys {
		rows, err := cl.Query(fmt.Sprintf(`select v from kv where k = '%s';`, k))
		if err != nil {
			t.Fatalf("query %s: %v", k, err)
		}
		if len(rows.Data) != 1 {
			t.Errorf("synced write %q lost: %d rows", k, len(rows.Data))
		}
	}
	// ...and the zombie's unsynced suffix is gone everywhere.
	for _, k := range []string{"zombie0", "zombie1", "fenced", "fenced2"} {
		rows, err := cl.Query(fmt.Sprintf(`select v from kv where k = '%s';`, k))
		if err != nil {
			t.Fatalf("query %s: %v", k, err)
		}
		if len(rows.Data) != 0 {
			t.Errorf("zombie write %q survived truncation", k)
		}
	}
}
