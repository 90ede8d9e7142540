package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/server"
)

// An instance is one built database ready to take a workload's operations:
// schema, indexes and rules created, rows loaded, and — unless the workload
// is embedded — a server listening on loopback with its connections dialled.
// Building one is what setup_s times.
type instance struct {
	db      *sopr.DB
	srv     *server.Server
	served  chan error
	clients []*client.Client
	dir     string // durable directory ("" in memory)
}

// build sets w's database up in dir (used only when w is durable).
func build(w *workload, dir string) (in *instance, err error) {
	in = &instance{}
	defer func() {
		if err != nil {
			in.close()
			in = nil
		}
	}()
	if w.durable {
		in.dir = dir
		if in.db, err = sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways)); err != nil {
			return in, err
		}
	} else {
		in.db = sopr.Open()
	}
	for _, s := range w.scripts() {
		if _, err = in.db.Exec(s); err != nil {
			return in, fmt.Errorf("set-up: %w", err)
		}
	}
	if w.embedded {
		return in, nil
	}
	in.srv = server.New(sopr.Synchronized(in.db), server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return in, err
	}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	for i := 0; i < w.conns(); i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			return in, err
		}
		in.clients = append(in.clients, c)
	}
	return in, nil
}

// target returns what connection i submits to.
func (in *instance) target(i int) target {
	if in.srv == nil {
		return in.db
	}
	return in.clients[i]
}

// close hangs up, drains the server, waits for its accept loop to end and
// closes the database; the durable directory is left for the caller.
func (in *instance) close() error {
	var errs []error
	for _, c := range in.clients {
		errs = append(errs, c.Close())
	}
	if in.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, in.srv.Shutdown(ctx))
		cancel()
		if err := <-in.served; !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if in.db != nil {
		errs = append(errs, in.db.Close())
	}
	return errors.Join(errs...)
}

// timedBuild builds w (in a fresh directory under base when it is durable)
// and reports how long that took.
func timedBuild(w *workload, base string) (*instance, time.Duration, error) {
	var dir string
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(base, w.name+"-*"); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	in, err := build(w, dir)
	return in, time.Since(t0), err
}
