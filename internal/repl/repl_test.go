// End-to-end replication tests: a real durable primary serving stream
// sessions, real followers replaying them, and real clients routing
// around them. The invariant under test everywhere: a follower's state at
// LSN n is byte-identical (as a dump) to the primary's state at LSN n, no
// matter how the stream got there — live tail, checkpoint bootstrap,
// kill/rejoin, primary restart, or a connection that keeps dying mid-frame.
package repl_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
	"sopr/internal/wire"
)

const testSchema = `
create table emp (name string, dno int, sal int, bonus int);
create rule raise when inserted into emp
then update emp set bonus = 100 where name in (select name from inserted emp) end;
`

// primary is a durable soprd-shaped node under test.
type primary struct {
	addr string
	node *repl.Node
	db   *sopr.DB
	srv  *server.Server
}

func startPrimary(t *testing.T, dir string) *primary {
	t.Helper()
	db, err := sopr.OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	node := startLeader(t, db)
	srv := server.New(node, server.Config{ReplWaitTimeout: 2 * time.Second})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	p := &primary{addr: ln.Addr().String(), node: node, db: db, srv: srv}
	t.Cleanup(func() { p.stop(t) })
	return p
}

// startLeader runs an open durable database as a leading node.
func startLeader(t *testing.T, db *sopr.DB) *repl.Node {
	t.Helper()
	node, err := repl.NewLeader(db, repl.Config{Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewLeader: %v", err)
	}
	return node
}

// restart brings a stopped primary back on its old address and data dir.
func restartPrimary(t *testing.T, dir, addr string) *primary {
	t.Helper()
	db, err := sopr.OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen durable: %v", err)
	}
	node := startLeader(t, db)
	srv := server.New(node, server.Config{ReplWaitTimeout: 2 * time.Second})
	var ln net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = server.Listen(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv.Serve(ln)
	p := &primary{addr: addr, node: node, db: db, srv: srv}
	t.Cleanup(func() { p.stop(t) })
	return p
}

func (p *primary) stop(t *testing.T) {
	t.Helper()
	if p.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
	_ = p.node.Close()
	p.srv = nil
}

func (p *primary) exec(t *testing.T, src string) *sopr.Result {
	t.Helper()
	res, err := p.node.Exec(src)
	if err != nil {
		t.Fatalf("primary exec: %v", err)
	}
	return res
}

func (p *primary) dump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := p.node.Dump(&b); err != nil {
		t.Fatalf("primary dump: %v", err)
	}
	return b.String()
}

// replica is a follower plus the server that fronts it.
type replica struct {
	addr string
	fl   *repl.Node
	srv  *server.Server
}

func startReplica(t *testing.T, primaryAddr string) *replica {
	t.Helper()
	fl, err := repl.NewFollower(primaryAddr, repl.Config{
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

func (r *replica) stop(t *testing.T) {
	t.Helper()
	if r.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
	r.fl.Close()
	r.srv = nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitCaughtUp(t *testing.T, r *replica, lsn uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("replica to reach lsn %d (at %d)", lsn, r.fl.AppliedLSN()),
		func() bool { return r.fl.AppliedLSN() >= lsn })
}

func TestFollowerStreamsAndServesReads(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('jane', 1, 60000, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer c.Close()

	// Reads are served, and the rule's effect (bonus 100) arrived via the
	// composed net effect — the replica never ran the rule itself.
	rows, err := c.Query(`select name, bonus from emp;`)
	if err != nil {
		t.Fatalf("query replica: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1].(int64) != 100 {
		t.Fatalf("replica rows = %+v", rows.Data)
	}

	// Writes are refused with the typed read-only code.
	if _, err := c.Exec(`insert into emp values ('bob', 1, 50000, 0);`); !client.IsRemote(err, client.CodeReadOnly) {
		t.Fatalf("exec on replica = %v, want remote %s", err, client.CodeReadOnly)
	}

	// Stats carry the replica's position.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Repl == nil || st.Repl.Role != "replica" || st.Repl.LSN != p.db.CurrentLSN() {
		t.Fatalf("replica repl stats = %+v", st.Repl)
	}

	// Dump equality at the same LSN: the acceptance bar for convergence.
	got, err := c.Dump()
	if err != nil {
		t.Fatalf("dump replica: %v", err)
	}
	if want := p.dump(t); got != want {
		t.Fatalf("replica dump diverges from primary:\n--- primary ---\n%s\n--- replica ---\n%s", want, got)
	}

	// The primary sees the follower and pins retention at its position.
	pst, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	waitFor(t, "primary to report the follower caught up", func() bool {
		s, err := pst.Stats()
		return err == nil && s.Repl != nil && s.Repl.Followers == 1 && s.Repl.MinFollowerLSN == p.db.CurrentLSN()
	})
}

// TestCheckpointBootstrap covers the snapshot path: the follower joins
// after the records it would need were pruned by a checkpoint, so the
// primary ships its checkpoint image first, then the tail.
func TestCheckpointBootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 10; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('e%d', %d, 1000, 0);`, i, i))
	}
	// Checkpoint rotates and prunes: LSN 1 is no longer in any segment.
	if err := p.node.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	p.exec(t, `insert into emp values ('late', 99, 1, 0);`) // tail after the image

	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	var b strings.Builder
	if err := r.fl.Dump(&b); err != nil {
		t.Fatalf("replica dump: %v", err)
	}
	if want := p.dump(t); b.String() != want {
		t.Fatal("replica dump diverges from primary after checkpoint bootstrap")
	}
	if st := r.fl.ReplStats(); !st.Connected || st.Lag != 0 {
		t.Fatalf("replica stats after catch-up = %+v", st)
	}
}

// TestFollowerKillRejoin kills a caught-up follower, keeps writing, and
// brings up a replacement that must bootstrap from scratch and converge.
func TestFollowerKillRejoin(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	r.stop(t) // follower dies; its pin is released

	p.exec(t, `insert into emp values ('b', 2, 2, 0);`)
	if err := p.node.Checkpoint(); err != nil { // prune past the dead follower
		t.Fatalf("checkpoint: %v", err)
	}
	p.exec(t, `insert into emp values ('c', 3, 3, 0);`)

	r2 := startReplica(t, p.addr)
	waitCaughtUp(t, r2, p.db.CurrentLSN())
	var b strings.Builder
	if err := r2.fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("rejoined replica diverges from primary")
	}
}

// TestPrimaryRestartFollowerReconnects restarts the primary under a live
// follower: the follower must ride out the outage and resume from its
// applied LSN (no re-bootstrap needed — the records survive in the WAL).
func TestPrimaryRestartFollowerReconnects(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir)
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	addr := p.addr
	p.stop(t)
	p2 := restartPrimary(t, dir, addr)
	p2.exec(t, `insert into emp values ('b', 2, 2, 0);`)
	waitCaughtUp(t, r, p2.db.CurrentLSN())
	var b strings.Builder
	if err := r.fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p2.dump(t) {
		t.Fatal("replica diverges from restarted primary")
	}
}

func TestReadYourWrites(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	pc, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rc, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	res, err := pc.Exec(`insert into emp values ('rw', 5, 5, 0);`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Fatal("durable exec returned no LSN token")
	}
	// The replica read with the token must include the write, even if the
	// stream has not delivered it at the moment the query arrives.
	rows, err := rc.QueryAt(`select name from emp where name = 'rw';`, res.LSN)
	if err != nil {
		t.Fatalf("QueryAt(min %d): %v", res.LSN, err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("read-your-writes returned %d rows", len(rows.Data))
	}
	// A floor the replica can never reach within the wait bound comes back
	// as the typed lagging error.
	if _, err := rc.QueryAt(`select name from emp;`, res.LSN+1000); !client.IsRemote(err, client.CodeLagging) {
		t.Fatalf("unreachable MinLSN = %v, want remote %s", err, client.CodeLagging)
	}
}

func TestPromoteMakesReplicaWritable(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Writable now — and rules fire again (bonus set by the raise rule).
	res, err := c.Exec(`insert into emp values ('new', 9, 9, 0);`)
	if err != nil {
		t.Fatalf("exec after promote: %v", err)
	}
	if len(res.Firings) == 0 {
		t.Fatal("no rule firing on promoted node; rules must re-enable after promotion")
	}
	rows, err := c.Query(`select bonus from emp where name = 'new';`)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0].(int64) != 100 {
		t.Fatalf("promoted write visible = %+v, err %v", rows, err)
	}
	st, err := c.Stats()
	if err != nil || st.Repl == nil || !st.Repl.Promoted {
		t.Fatalf("promoted stats = %+v, err %v", st.Repl, err)
	}
	// Promoting the leading primary opens no epoch: it answers with the
	// epoch it already leads in (0 here; the replica's promotion has not
	// reached it).
	if epoch, _, err := dialNode(t, p.addr).PromoteTo(0); err != nil || epoch != 0 {
		t.Fatalf("promote on leading primary = epoch %d, err %v; want epoch 0, no error", epoch, err)
	}
	// A server over a plain database is no replication node: promotion is
	// refused.
	plain := server.New(sopr.Synchronized(sopr.Open()), server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go plain.Serve(ln)
	defer shutdownServer(t, plain)
	if err := dialNode(t, ln.Addr().String()).Promote(); !client.IsRemote(err, "") {
		t.Fatalf("promote on a plain database = %v, want remote error", err)
	}
}

func TestJoinRefusedOffPrimary(t *testing.T) {
	// A replica does not serve streams: joining one is a typed refusal.
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	nc, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteMessage(nc, wire.MsgReplJoin, &wire.ReplJoinRequest{}, wire.DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, wire.DefaultMaxFrame)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("join on replica: typ %#x, err %v", typ, err)
	}
	var er wire.ErrorResponse
	if err := wire.Unmarshal(payload, &er); err != nil || er.Code != wire.CodeNotPrimary {
		t.Fatalf("join on replica = %+v, want %s", er, wire.CodeNotPrimary)
	}
}

// chaosProxy sits between a follower and its primary and kills each
// stream session after a byte budget, cutting connections mid-frame. The
// budget grows per session so the follower always eventually converges.
type chaosProxy struct {
	ln      net.Listener
	target  string
	budget  atomic.Int64
	killed  atomic.Int64
	stopped atomic.Bool
}

func startChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cp := &chaosProxy{ln: ln, target: target}
	cp.budget.Store(64) // first session dies inside the very first frames
	go cp.run()
	t.Cleanup(func() {
		cp.stopped.Store(true)
		ln.Close()
	})
	return cp
}

func (cp *chaosProxy) addr() string { return cp.ln.Addr().String() }

func (cp *chaosProxy) run() {
	for {
		down, err := cp.ln.Accept()
		if err != nil {
			return
		}
		go cp.session(down)
	}
}

func (cp *chaosProxy) session(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", cp.target)
	if err != nil {
		return
	}
	defer up.Close()
	budget := cp.budget.Load()
	cp.budget.Store(budget * 4)
	go func() { _, _ = io.Copy(up, down) }() // acks flow freely upstream
	// Downstream stops mid-byte-stream at the budget: a torn frame from
	// the follower's point of view.
	_, _ = io.CopyN(down, up, budget)
	if !cp.stopped.Load() {
		cp.killed.Add(1)
	}
}

// TestTornStreamNeverDiverges is the fault-injection acceptance test: a
// stream that keeps dying mid-frame (including inside the checkpoint
// bootstrap) must never leave the follower divergent or wedged — every
// session either resumes or re-bootstraps, and the follower converges to
// a byte-identical dump.
func TestTornStreamNeverDiverges(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 8; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('pre%d', %d, 100, 0);`, i, i))
	}
	if err := p.node.Checkpoint(); err != nil { // force the bootstrap path through the proxy
		t.Fatal(err)
	}

	cp := startChaosProxy(t, p.addr)
	r := startReplica(t, cp.addr())

	// Keep writing while sessions are being killed.
	for i := 0; i < 8; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('live%d', %d, 200, 0);`, i, i))
		time.Sleep(10 * time.Millisecond)
	}

	waitCaughtUp(t, r, p.db.CurrentLSN())
	if cp.killed.Load() == 0 {
		t.Fatal("chaos proxy never killed a session; the test exercised nothing")
	}
	var b strings.Builder
	if err := r.fl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("follower diverged after torn streams")
	}
	t.Logf("converged after %d killed sessions", cp.killed.Load())
}
