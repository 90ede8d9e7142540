// S4: read throughput scaling across WAL-shipping read replicas. One
// durable primary takes a hot rule-firing write stream while reader
// goroutines fan filtered-COUNT queries across the replica set through
// client.DialCluster. S2 showed shared-lock reads scale inside one
// process until its cores run out; S4 moves past that wall by adding
// engines: each replica replays the primary's net-effect stream into its
// own copy and serves reads from it, so the read path never contends
// with the primary's write lock at all.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
)

// s4TotalOps is the number of read operations measured per S4 table row
// (the -s4ops flag; CI smoke runs shrink it).
var s4TotalOps = 2000

const s4Readers = 8

func s4() {
	header("S4", "read throughput vs replica count (WAL-shipping replication)")
	fmt.Printf("%-10s %12s %12s %12s %12s\n",
		"replicas", "reads/sec", "µs/read", "writes/sec", "final lag")
	for _, nrep := range []int{0, 1, 2, 4} {
		rps, usPerRead, wps, lag := s4run(nrep, s4TotalOps)
		fmt.Printf("%-10d %12.0f %12.1f %12.0f %12d\n", nrep, rps, usPerRead, wps, lag)
	}
	fmt.Printf("(GOMAXPROCS=%d, %d reader goroutines; replicas add whole engines, so the\n",
		runtime.GOMAXPROCS(0), s4Readers)
	fmt.Println(" ceiling is cores, not one engine's lock — and a busy writer no longer")
	fmt.Println(" stalls readers. Final lag is records the slowest replica still owes.)")
}

// s4run boots a primary plus nrep replicas, drives total reads through
// s4Readers cluster handles under a continuous writer, and reports
// reads/sec, µs/read, writes/sec, and the worst follower lag at the end.
func s4run(nrep, total int) (rps, usPerRead, wps float64, lag uint64) {
	dir, err := os.MkdirTemp("", "soprbench-s4-*")
	must(err)
	defer os.RemoveAll(dir)
	db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncNever))
	must(err)
	db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
	db.MustExec(b1Rule)
	const rows = 4000
	for base := 0; base < rows; base += 500 {
		db.MustExec(insertScript(base, 500))
	}

	leader, err := repl.NewLeader(db, repl.Config{Heartbeat: 100 * time.Millisecond})
	must(err)
	defer leader.Close()
	psrv := server.New(leader, server.Config{})
	pln, err := server.Listen("127.0.0.1:0")
	must(err)
	go psrv.Serve(pln)
	addrs := []string{pln.Addr().String()}
	shutdown := func(srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		must(srv.Shutdown(ctx))
	}
	defer shutdown(psrv)

	followers := make([]*repl.Node, nrep)
	for i := range followers {
		fl, err := repl.NewFollower(pln.Addr().String(), repl.Config{AckInterval: 20 * time.Millisecond})
		must(err)
		go fl.Run()
		defer fl.Close()
		rsrv := server.New(fl, server.Config{})
		rln, err := server.Listen("127.0.0.1:0")
		must(err)
		go rsrv.Serve(rln)
		defer shutdown(rsrv)
		followers[i] = fl
		addrs = append(addrs, rln.Addr().String())
	}
	// Let every replica finish bootstrapping before the clock starts.
	for _, fl := range followers {
		for fl.AppliedLSN() < db.CurrentLSN() {
			time.Sleep(time.Millisecond)
		}
	}

	// Hot writer: rule-firing insert/delete pairs on the primary for the
	// whole measurement window, shipping every net effect to the replicas.
	stop := make(chan struct{})
	var writes atomic.Int64
	var wwg sync.WaitGroup
	wc, err := client.Dial(pln.Addr().String())
	must(err)
	defer wc.Close()
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		i := 1_000_000_000 // ids disjoint from the resident rows
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := wc.Exec(fmt.Sprintf(`insert into t values (%d, %d); delete from t where id = %d`, i, i%97, i))
			must(err)
			writes.Add(1)
			i++
		}
	}()

	// Readers: each goroutine owns a cluster handle (per-endpoint
	// connections serialize round trips) and fans reads over the group.
	per := total / s4Readers
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < s4Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := client.DialCluster(addrs)
			must(err)
			defer cl.Close()
			<-start
			for j := 0; j < per; j++ {
				rows, err := cl.Query(fmt.Sprintf(`select count(*) from t where v = %d`, (r*31+j)%97))
				must(err)
				benchSink = rows
			}
		}(r)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(stop)
	wwg.Wait()

	primaryLSN := db.CurrentLSN()
	for _, fl := range followers {
		if applied := fl.AppliedLSN(); primaryLSN > applied && primaryLSN-applied > lag {
			lag = primaryLSN - applied
		}
	}
	done := per * s4Readers
	return float64(done) / elapsed.Seconds(),
		float64(elapsed.Microseconds()) / float64(done),
		float64(writes.Load()) / elapsed.Seconds(),
		lag
}
