// Cluster routing tests against a real three-node group: one durable
// primary, two streaming replicas. Covers write routing, read fan-out
// with read-your-writes tokens, read retry across dead endpoints, and
// failover by promoting the freshest replica.
package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
)

const clusterSchema = `create table kv (k string, v int);`

type clusterNodes struct {
	primaryAddr string
	leader      *repl.Node
	db          *sopr.DB
	psrv        *server.Server
	replicas    []*replicaNode
}

type replicaNode struct {
	addr string
	fl   *repl.Node
	srv  *server.Server
}

func startCluster(t *testing.T, nReplicas int) *clusterNodes {
	t.Helper()
	db, err := sopr.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leader, err := repl.NewLeader(db, repl.Config{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	psrv := server.New(leader, server.Config{ReplWaitTimeout: 2 * time.Second})
	pln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go psrv.Serve(pln)
	cn := &clusterNodes{primaryAddr: pln.Addr().String(), leader: leader, db: db, psrv: psrv}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = cn.psrv.Shutdown(ctx)
		_ = leader.Close()
	})
	for i := 0; i < nReplicas; i++ {
		cn.addReplica(t, "")
	}
	return cn
}

// addReplica attaches a follower to the cluster's primary; a non-empty
// dir makes it durable (own WAL, preferred at failover ties).
func (cn *clusterNodes) addReplica(t *testing.T, dir string) *replicaNode {
	t.Helper()
	fl, err := repl.NewFollower(cn.primaryAddr, repl.Config{
		DataDir:      dir,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go fl.Run()
	rsrv := server.New(fl, server.Config{ReplWaitTimeout: 2 * time.Second})
	rln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(rln)
	rn := &replicaNode{addr: rln.Addr().String(), fl: fl, srv: rsrv}
	cn.replicas = append(cn.replicas, rn)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rn.srv.Shutdown(ctx)
		rn.fl.Close()
	})
	return rn
}

func (cn *clusterNodes) addrs() []string {
	out := []string{cn.primaryAddr}
	for _, r := range cn.replicas {
		out = append(out, r.addr)
	}
	return out
}

func (cn *clusterNodes) waitCaughtUp(t *testing.T) {
	t.Helper()
	want := cn.db.CurrentLSN()
	deadline := time.Now().Add(15 * time.Second)
	for _, r := range cn.replicas {
		for r.fl.AppliedLSN() < want {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s stuck at lsn %d, want %d", r.addr, r.fl.AppliedLSN(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestClusterRoutesWritesAndReads(t *testing.T) {
	cn := startCluster(t, 2)
	// Hand DialCluster the addresses replicas-first: it must discover the
	// primary by role, not by position.
	addrs := []string{cn.replicas[0].addr, cn.replicas[1].addr, cn.primaryAddr}
	cl, err := client.DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec(clusterSchema); err != nil {
		t.Fatalf("cluster exec: %v", err)
	}
	res, err := cl.Exec(`insert into kv values ('a', 1);`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 || cl.Token() != res.LSN {
		t.Fatalf("token = %d, exec lsn = %d", cl.Token(), res.LSN)
	}
	// Reads carry the token, so they see the write no matter which node
	// answers — run several to sweep across the round-robin.
	for i := 0; i < 6; i++ {
		rows, err := cl.Query(`select v from kv where k = 'a';`)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].(int64) != 1 {
			t.Fatalf("query %d rows = %+v", i, rows.Data)
		}
	}
	// The replicas actually served reads (tokens made them wait, not miss).
	cn.waitCaughtUp(t)
	served := int64(0)
	for _, r := range cn.replicas {
		c, err := client.Dial(r.addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		served += st.Server.Queries
	}
	if served == 0 {
		t.Fatal("no replica served a single read; routing sent everything to the primary")
	}
}

// TestClusterReadRetriesPastDeadEndpoint: killing a replica mid-run must
// not fail reads — the cluster retries the idempotent request on the next
// endpoint.
func TestClusterReadRetriesPastDeadEndpoint(t *testing.T) {
	cn := startCluster(t, 2)
	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(clusterSchema + `insert into kv values ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	cn.waitCaughtUp(t)

	// Kill one replica out from under the cluster's open connections.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = cn.replicas[0].srv.Shutdown(ctx)
	cn.replicas[0].fl.Close()

	for i := 0; i < 6; i++ {
		rows, err := cl.Query(`select v from kv where k = 'a';`)
		if err != nil {
			t.Fatalf("query %d after replica death: %v", i, err)
		}
		if len(rows.Data) != 1 {
			t.Fatalf("query %d rows = %+v", i, rows.Data)
		}
	}
	if _, err := cl.Dump(); err != nil {
		t.Fatalf("dump after replica death: %v", err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("stats after replica death: %v", err)
	}
}

// TestClusterFailover: the primary dies; the next write must promote the
// freshest reachable replica and land there, and subsequent reads see it.
func TestClusterFailover(t *testing.T) {
	cn := startCluster(t, 2)
	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(clusterSchema + `insert into kv values ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	cn.waitCaughtUp(t)

	// Primary dies hard.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = cn.psrv.Shutdown(ctx)
	_ = cn.leader.Close()

	res, err := cl.Exec(`insert into kv values ('b', 2);`)
	if err != nil {
		t.Fatalf("exec after primary death: %v", err)
	}
	_ = res
	// Exactly one replica got promoted, and the write is readable.
	promoted := 0
	for _, r := range cn.replicas {
		if r.fl.Promoted() {
			promoted++
		}
	}
	if promoted != 1 {
		t.Fatalf("%d replicas promoted, want exactly 1", promoted)
	}
	rows, err := cl.Query(`select v from kv where k = 'b';`)
	if err != nil {
		t.Fatalf("query after failover: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].(int64) != 2 {
		t.Fatalf("rows after failover = %+v", rows.Data)
	}
	// The pre-failover data survived the promotion.
	rows, err = cl.Query(`select v from kv where k = 'a';`)
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("pre-failover data = %+v, err %v", rows, err)
	}
}

// TestClusterDialAfterPrimaryDeathPromotes: a client that dials the
// cluster AFTER the primary is already gone must still be able to
// write — its first Exec finds no writable member and elects one, with
// the same authority as a client that watched the primary die.
func TestClusterDialAfterPrimaryDeathPromotes(t *testing.T) {
	cn := startCluster(t, 2)
	seed, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Exec(clusterSchema + `insert into kv values ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	_ = seed.Close()
	cn.waitCaughtUp(t)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = cn.psrv.Shutdown(ctx)
	_ = cn.leader.Close()

	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Exec(`insert into kv values ('b', 2);`)
	if err != nil {
		t.Fatalf("exec on freshly dialed primary-less cluster: %v", err)
	}
	if res.Epoch == 0 {
		t.Fatalf("write accepted at epoch 0, want a post-failover epoch")
	}
	promoted := 0
	for _, r := range cn.replicas {
		if r.fl.Promoted() {
			promoted++
		}
	}
	if promoted != 1 {
		t.Fatalf("%d replicas promoted, want exactly 1", promoted)
	}
	rows, err := cl.Query(`select v from kv where k = 'b';`)
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("read-back after dial-time failover = %+v, err %v", rows, err)
	}
}

// TestClusterFailoverPrefersDurableReplica: at equal LSN the failover
// tie-break must pick the durable replica — an in-memory winner would
// orphan every sibling, a durable one keeps feeding them — and re-point
// the in-memory survivor at the new leader instead of going stale.
func TestClusterFailoverPrefersDurableReplica(t *testing.T) {
	cn := startCluster(t, 0)
	inmem := cn.addReplica(t, "")
	durable := cn.addReplica(t, t.TempDir())
	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(clusterSchema + `insert into kv values ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	cn.waitCaughtUp(t)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = cn.psrv.Shutdown(ctx)
	_ = cn.leader.Close()

	res, err := cl.Exec(`insert into kv values ('b', 2);`)
	if err != nil {
		t.Fatalf("exec after primary death: %v", err)
	}
	if !durable.fl.Promoted() || inmem.fl.Promoted() {
		t.Fatalf("promoted: durable=%v inmem=%v; the durable replica must win the tie",
			durable.fl.Promoted(), inmem.fl.Promoted())
	}
	if res.Epoch != 1 {
		t.Fatalf("post-failover write epoch = %d, want 1", res.Epoch)
	}
	if addr, epoch := cl.Leader(); addr != durable.addr || epoch != 1 {
		t.Fatalf("leader = %s epoch %d, want %s epoch 1", addr, epoch, durable.addr)
	}
	// The in-memory survivor is re-pointed, not orphaned: it streams from
	// the new leader and keeps serving reads.
	deadline := time.Now().Add(15 * time.Second)
	for inmem.fl.Leader() != durable.addr || inmem.fl.AppliedLSN() < res.LSN {
		if time.Now().After(deadline) {
			t.Fatalf("in-memory replica never re-pointed: leader %s, lsn %d (want %s, %d)",
				inmem.fl.Leader(), inmem.fl.AppliedLSN(), durable.addr, res.LSN)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := inmem.fl.ReplStats(); st.Role != "replica" {
		t.Fatalf("in-memory survivor role = %s, want replica", st.Role)
	}
	rows, err := cl.Query(`select v from kv where k = 'b';`)
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("read after failover = %+v, err %v", rows, err)
	}
}

// TestClusterFailoverTieBreakDeterministic: two durable replicas at the
// same LSN — the lowest address must win, so concurrent failovers (or a
// re-run) elect the same node.
func TestClusterFailoverTieBreakDeterministic(t *testing.T) {
	cn := startCluster(t, 0)
	r1 := cn.addReplica(t, t.TempDir())
	r2 := cn.addReplica(t, t.TempDir())
	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(clusterSchema + `insert into kv values ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	cn.waitCaughtUp(t)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = cn.psrv.Shutdown(ctx)
	_ = cn.leader.Close()

	if _, err := cl.Exec(`insert into kv values ('b', 2);`); err != nil {
		t.Fatalf("exec after primary death: %v", err)
	}
	want, other := r1, r2
	if r2.addr < r1.addr {
		want, other = r2, r1
	}
	if !want.fl.Promoted() || other.fl.Promoted() {
		t.Fatalf("promoted %v/%v (addrs %s < %s): tie-break must pick the lowest address",
			r1.fl.Promoted(), r2.fl.Promoted(), want.addr, other.addr)
	}
}

// TestClusterScriptErrorsAreNotRetried: a parse error is the caller's
// bug, not a routing problem — it must come back once, unchanged, with
// no failover attempt.
func TestClusterScriptErrorsAreNotRetried(t *testing.T) {
	cn := startCluster(t, 1)
	cl, err := client.DialCluster(cn.addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(clusterSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`this is not sql;`); !client.IsRemote(err, client.CodeParse) {
		t.Fatalf("parse error came back as %v", err)
	}
	if _, err := cl.Query(`select nope from missing;`); !client.IsRemote(err, "") {
		t.Fatalf("bad query came back as %v", err)
	}
	for _, r := range cn.replicas {
		if r.fl.Promoted() {
			t.Fatal("script error triggered a promotion")
		}
	}
}

func TestDialClusterNeedsAReachableEndpoint(t *testing.T) {
	if _, err := client.DialCluster([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("DialCluster to a dead address succeeded")
	}
	if _, err := client.DialCluster(nil); err == nil {
		t.Fatal("DialCluster with no addresses succeeded")
	}
}

func ExampleDialCluster() {
	// Connect to a primary and two replicas; writes go to the primary,
	// reads fan out, and the cluster follows a failover automatically.
	cl, err := client.DialCluster([]string{"db1:5477", "db2:5477", "db3:5477"})
	if err != nil {
		fmt.Println("no endpoint reachable")
		return
	}
	defer cl.Close()
	if _, err := cl.Exec(`insert into emp values ('jane', 1, 60000, 0)`); err != nil {
		fmt.Println(err)
	}
	rows, err := cl.Query(`select name from emp`) // sees jane: read-your-writes
	_, _ = rows, err
	// Output: no endpoint reachable
}
