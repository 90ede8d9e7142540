// S5: the price of synchronous commit. One durable primary takes the B13
// write workload (single-row INSERTs firing an update rule) through the
// full server stack while N of its followers must ack each commit's LSN
// before the client is acknowledged. N=0 is the async baseline — the same
// configuration B13 prices locally — so the delta is pure replication
// wait: one ack round-trip over loopback plus the follower's apply. The
// table reports how much durability-across-nodes costs on top of
// durability-on-disk.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
)

// s5Txns is the number of committed transactions per S5 table row (the
// -s5txns flag; CI smoke runs shrink it).
var s5Txns = 300

func s5() {
	header("S5", "synchronous commit: follower acks per txn vs throughput")
	fmt.Printf("%-16s %12s %12s %10s\n", "sync-followers", "txn/s", "µs/txn", "synced")
	for _, n := range []int{0, 1, 2} {
		tps, usPerTxn, synced := s5run(n, s5Txns)
		fmt.Printf("%-16d %12.0f %12.1f %9.0f%%\n", n, tps, usPerTxn, synced)
	}
	fmt.Println("\n(N=0 acks at local durability, as in B13; N>0 additionally holds each")
	fmt.Println(" commit until N follower acks cover its LSN. 'synced' is the share of")
	fmt.Println(" commits confirmed within the sync timeout rather than degraded to async.)")
}

// s5run boots a primary with two durable followers, drives txns rule-firing
// writes through a client with SyncFollowers=n, and reports throughput,
// latency, and the fraction of commits that were confirmed synchronously.
func s5run(n, txns int) (tps, usPerTxn, syncedPct float64) {
	dir, err := os.MkdirTemp("", "soprbench-s5-*")
	must(err)
	defer os.RemoveAll(dir)
	db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncNever))
	must(err)
	p, err := repl.NewLeader(db, repl.Config{
		SyncFollowers: n,
		SyncTimeout:   5 * time.Second,
		Heartbeat:     100 * time.Millisecond,
	})
	must(err)
	defer func() { must(p.Close()) }()
	psrv := server.New(p, server.Config{})
	pln, err := server.Listen("127.0.0.1:0")
	must(err)
	go psrv.Serve(pln)
	shutdown := func(srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		must(srv.Shutdown(ctx))
	}
	defer shutdown(psrv)

	for i := 0; i < 2; i++ {
		fdir, err := os.MkdirTemp("", "soprbench-s5-f-*")
		must(err)
		defer os.RemoveAll(fdir)
		fl, err := repl.NewFollower(pln.Addr().String(), repl.Config{
			DataDir:     fdir,
			AckInterval: 5 * time.Millisecond,
		})
		must(err)
		go fl.Run()
		defer fl.Close()
	}

	c, err := client.Dial(pln.Addr().String())
	must(err)
	defer c.Close()
	_, err = c.Exec(`create table t (id int, v int);
		create rule bump when inserted into t
		then update t set v = v + 1 where id in (select id from inserted t)
		end`)
	must(err)
	// Both followers caught up before the clock starts: the first measured
	// commit should wait on an ack round-trip, not a bootstrap.
	if n > 0 {
		for {
			if st := p.ReplStats(); st.MinFollowerLSN >= p.CurrentLSN() && st.Followers == 2 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	synced := 0
	t0 := time.Now()
	for i := 0; i < txns; i++ {
		res, err := c.Exec(fmt.Sprintf(`insert into t values (%d, 0)`, i))
		must(err)
		if res.Synced {
			synced++
		}
	}
	elapsed := time.Since(t0)
	perTxn := float64(elapsed.Microseconds()) / float64(txns)
	return 1e6 / perTxn, perTxn, 100 * float64(synced) / float64(txns)
}
