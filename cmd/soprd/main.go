// Command soprd serves a sopr database over TCP with the wire protocol, so
// many concurrent clients (the client package, soprsh -connect) share one
// rule engine. Operation blocks are serialized across connections,
// preserving the paper's single-stream model of execution (Section 2.1).
//
//	$ soprd -addr :5477 -init schema.sql
//	$ soprd -addr :5477 -data /var/lib/sopr -fsync always
//	$ soprsh -connect localhost:5477
//
// With -data, committed transactions are written ahead to a segmented log
// of net transition effects and the database survives restarts: startup
// loads the newest checkpoint, replays the log tail, and refuses to serve
// if recovery fails. The -init script runs only when the data directory is
// fresh. SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// idle sessions are disconnected, transactions already executing drain
// (bounded by -shutdown-timeout), and a final checkpoint is written.
//
// A durable soprd also serves WAL-shipping replication: read replicas run
//
//	$ soprd -addr :5478 -follow primary-host:5477
//	$ soprd -addr :5479 -follow primary-host:5477 -data /var/lib/sopr-replica
//
// and keep a copy current by replaying the primary's record stream
// (bootstrapping from its newest checkpoint), serving queries, dumps, and
// stats while rejecting writes. A plain -follow replica keeps no local
// state; with -data it is a durable follower — it persists the stream in
// its own write-ahead log, restarts from local state, and after a
// failover promotion serves as a full WAL-shipping primary that the
// surviving replicas re-point to. Promotions are fenced by monotonically
// increasing epochs carried on every frame: a deposed primary's writes
// answer a typed "fenced" error, and it demotes itself under the new
// leader when the partition heals. With -sync-followers N, the primary
// holds each commit's ack until N followers have acknowledged the
// record's LSN (degrading to an async ack, with a warning, after
// -sync-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sopr"
	"sopr/internal/repl"
	"sopr/internal/server"
)

type options struct {
	addr            string
	initFile        string
	dataDir         string
	follow          string
	fsync           string
	fsyncInterval   time.Duration
	ckptInterval    time.Duration
	maxFrame        int
	readTimeout     time.Duration
	writeTimeout    time.Duration
	shutdownTimeout time.Duration
	selectTriggers  bool
	maxTransitions  int
	syncFollowers   int
	syncTimeout     time.Duration
	trace           bool
	verbose         bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":5477", "listen address")
	flag.StringVar(&o.initFile, "init", "", "SQL script (e.g. a .dump) executed before serving (with -data: only when the directory is fresh)")
	flag.StringVar(&o.dataDir, "data", "", "data directory for the write-ahead log and checkpoints (empty = in-memory)")
	flag.StringVar(&o.follow, "follow", "", "run as a read replica of the primary soprd at this address")
	flag.StringVar(&o.fsync, "fsync", "always", "log fsync policy: always, interval, or never")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", 0, "background sync period for -fsync interval (0 = 100ms)")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", 0, "write a checkpoint this often (0 = only at shutdown)")
	flag.IntVar(&o.maxFrame, "max-frame", 0, "max request/response frame payload in bytes (0 = 8 MiB)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 0, "disconnect clients idle this long (0 = 5m)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 0, "max time to write one response (0 = 30s)")
	flag.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 30*time.Second, "max time to drain in-flight transactions on shutdown")
	flag.BoolVar(&o.selectTriggers, "select-triggers", false, "enable Section 5.1 select-triggered rules")
	flag.IntVar(&o.maxTransitions, "max-transitions", 0, "runaway guard: max rule transitions per transaction (0 = default)")
	flag.IntVar(&o.syncFollowers, "sync-followers", 0, "hold each commit ack until this many followers ack its LSN (0 = async replication)")
	flag.DurationVar(&o.syncTimeout, "sync-timeout", 0, "max sync-commit wait before degrading to an async ack (0 = 2s)")
	flag.BoolVar(&o.trace, "trace", false, "log rule-processing events to stderr")
	flag.BoolVar(&o.verbose, "v", false, "log connection events")
	flag.Parse()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if err := run(o, sigc, nil); err != nil {
		log.Fatal(err)
	}
}

// openDB builds the database per the options: durable when -data is set
// (recovering prior state, running -init only on a fresh directory),
// in-memory otherwise. Any failure — unparseable -fsync, recovery error,
// broken init script — is returned before anything serves: a half
// initialized database must never reach the listener.
func openDB(o options, logger *log.Logger) (*sopr.DB, error) {
	var opts []sopr.Option
	if o.selectTriggers {
		opts = append(opts, sopr.WithSelectTriggers())
	}
	if o.maxTransitions > 0 {
		opts = append(opts, sopr.WithMaxRuleTransitions(o.maxTransitions))
	}

	loadInit := func(db *sopr.DB) error {
		f, err := os.Open(o.initFile)
		if err != nil {
			return err
		}
		lerr := db.Load(f)
		cerr := f.Close()
		if lerr != nil {
			// db.Load surfaces *sopr.ParseError, so the message carries the
			// offending line and column.
			return fmt.Errorf("init script %s: %w", o.initFile, lerr)
		}
		if cerr != nil {
			return fmt.Errorf("init script %s: %w", o.initFile, cerr)
		}
		logger.Printf("loaded %s (%d tables, %d rules)", o.initFile, len(db.Tables()), len(db.Rules()))
		return nil
	}

	if o.dataDir == "" {
		db := sopr.Open(opts...)
		if o.initFile != "" {
			if err := loadInit(db); err != nil {
				return nil, err
			}
		}
		return db, nil
	}

	policy, err := sopr.ParseSyncPolicy(o.fsync)
	if err != nil {
		return nil, err
	}
	opts = append(opts, sopr.WithFsync(policy))
	if o.fsyncInterval > 0 {
		opts = append(opts, sopr.WithFsyncInterval(o.fsyncInterval))
	}
	db, err := sopr.OpenDurable(o.dataDir, opts...)
	if err != nil {
		return nil, err
	}
	rec := db.Recovery()
	for _, skipped := range rec.SkippedCheckpoints {
		logger.Printf("warning: skipped unreadable checkpoint %s", skipped)
	}
	if db.Recovered() {
		if rec.TruncatedBytes > 0 {
			logger.Printf("truncated %d torn bytes from the log tail", rec.TruncatedBytes)
		}
		logger.Printf("recovered %s: checkpoint=%v, %d records replayed (%d tables, %d rules)",
			o.dataDir, rec.CheckpointLoaded, rec.RecordsReplayed, len(db.Tables()), len(db.Rules()))
		if o.initFile != "" {
			logger.Printf("data directory has prior state; ignoring -init %s", o.initFile)
		}
		if rec.RecordsReplayed > 0 {
			// Compact right away so the next restart replays nothing.
			if err := db.Checkpoint(); err != nil {
				_ = db.Close() // first error wins
				return nil, fmt.Errorf("checkpoint after recovery: %w", err)
			}
		}
		return db, nil
	}
	if o.initFile != "" {
		if err := loadInit(db); err != nil {
			_ = db.Close() // first error wins
			return nil, err
		}
	}
	return db, nil
}

// run builds the database and server, serves until a signal arrives on
// sigc, then drains and exits. When ready is non-nil it receives the bound
// address once the listener is up (used by tests to pick a free port).
func run(o options, sigc <-chan os.Signal, ready chan<- net.Addr) error {
	logger := log.New(os.Stderr, "soprd: ", log.LstdFlags)

	cfg := server.Config{
		MaxFrame:     o.maxFrame,
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
	}
	if o.verbose {
		cfg.Logf = logger.Printf
	}

	durable := o.dataDir != ""
	rcfg := repl.Config{
		SyncFollowers:      o.syncFollowers,
		SyncTimeout:        o.syncTimeout,
		SelectTriggers:     o.selectTriggers,
		MaxRuleTransitions: o.maxTransitions,
		Logf:               logger.Printf,
	}
	var backend server.DB
	// node is the replication node — a -follow replica or a durable
	// primary — and nil for an in-memory primary, which ships no WAL.
	var node *repl.Node
	if o.follow != "" {
		// A replica bootstraps from the primary's checkpoint and replays
		// its stream, so an init script would only be silently ignored —
		// refuse it instead. With -data the replica persists the stream in
		// its own log (a durable follower); without it, replay state is
		// memory-only and a restart rejoins from scratch.
		if o.initFile != "" {
			return fmt.Errorf("-follow and -init are mutually exclusive: replicas bootstrap from the primary")
		}
		if o.trace {
			return fmt.Errorf("-trace is not supported on a replica: replay runs with rules disabled")
		}
		if o.syncFollowers > 0 && !durable {
			return fmt.Errorf("-sync-followers needs -data: only a durable follower can lead after promotion")
		}
		rcfg.DataDir = o.dataDir
		n, err := repl.NewFollower(o.follow, rcfg)
		if err != nil {
			return err
		}
		go n.Run()
		node = n
		if durable {
			logger.Printf("replica: following %s (durable, %s, applied lsn %d, epoch %d)",
				o.follow, o.dataDir, n.AppliedLSN(), n.Epoch())
		} else {
			logger.Printf("replica: following %s", o.follow)
		}
	} else {
		db, err := openDB(o, logger)
		if err != nil {
			return err
		}
		if o.trace {
			db.TraceTo(os.Stderr)
		}
		if durable {
			// A durable primary ships its WAL to any replica that joins,
			// fences itself when the cluster elects a newer epoch, and —
			// with -sync-followers — holds commit acks for follower acks.
			if node, err = repl.NewLeader(db, rcfg); err != nil {
				_ = db.Close()
				return err
			}
		} else {
			if o.syncFollowers > 0 {
				_ = db.Close()
				return fmt.Errorf("-sync-followers needs -data: an in-memory server ships no WAL")
			}
			sdb := sopr.Synchronized(db)
			defer func() { _ = sdb.Close() }()
			backend = sdb
		}
	}
	// checkpoint compacts the log while serving and once more at shutdown.
	var checkpoint func() error
	if node != nil {
		backend = node
		defer func() {
			if err := node.Close(); err != nil {
				logger.Printf("close: %v", err)
			}
		}()
		if durable {
			checkpoint = node.Checkpoint
		}
	}

	srv := server.New(backend, cfg)
	ln, err := server.Listen(o.addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	// Periodic checkpoints compact the log while serving; a failed
	// checkpoint is logged but not fatal (the log still has everything).
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if checkpoint == nil || o.ckptInterval <= 0 {
			return
		}
		t := time.NewTicker(o.ckptInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := checkpoint(); err != nil {
					logger.Printf("checkpoint: %v", err)
				}
			case <-ckptStop:
				return
			}
		}
	}()

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Printf("%v: draining (timeout %v)", sig, o.shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
		<-serveDone
		close(ckptStop)
		<-ckptDone
		if checkpoint != nil {
			// Persist the state as a checkpoint image so the next start
			// replays only the records since.
			if err := checkpoint(); err != nil {
				logger.Printf("final checkpoint: %v", err)
			}
		}
		st := srv.Stats()
		logger.Printf("served %d connections, %d execs, %d queries; %d requests drained",
			st.Accepted, st.Execs, st.Queries, st.DrainedReqs)
		return nil
	case err := <-serveDone:
		close(ckptStop)
		<-ckptDone
		return err
	}
}
