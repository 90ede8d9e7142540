// Package server implements the soprd network front-end: it accepts TCP
// connections, frames requests with the wire protocol, and serves them from
// one shared engine. Sessions are request/response: each connection issues
// one request at a time. The shared SynchronizedDB serializes operation
// blocks (exec requests) across connections, preserving the paper's
// single-stream model of system execution (Section 2.1) — concurrent
// writers are simply interleaved as a stream of transactions — while
// read-only requests (query, stats, dump; ping never touches the engine)
// take no lock at all: they read the engine's published MVCC snapshot, so
// independent connections issuing reads execute concurrently with each
// other and with a running writer, and scale across cores instead of
// queueing behind one mutex (experiments S2 and S3 measure this).
//
// Robustness against slow or broken peers: every read of a request frame and
// every write of a response runs under a deadline, frames beyond the
// configured maximum are rejected before their payload is read, and framing
// errors close the connection (the stream cannot be trusted afterwards).
// Shutdown stops accepting, closes idle connections, and drains requests
// that are already executing before returning.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/internal/repl"
	"sopr/internal/wire"
)

// DB is the backend a Server serves from: a SynchronizedDB or a
// repl.Node. Exec and ExecBatch land on the backend's exclusive write path
// (one operation-block stream, per the paper's Section 2.1); ExecBatch
// runs its statements as one operation block (one engine pass, one commit
// record, one shared fsync), and a node that does not lead refuses both
// with its typed read_only or fenced error. Query, Dump, and Stats are
// read-only. CurrentLSN is the durable position the server attaches to
// exec responses — the read-your-writes token clients carry to replica
// reads.
//
// A repl.Node backend also serves the replication requests: stream joins,
// promotion, follow orders, the epoch gate, read-your-writes waits and
// replication stats. Any other backend refuses them.
type DB interface {
	Exec(src string) (*sopr.Result, error)
	ExecBatch(stmts []string) (*sopr.Result, error)
	Query(src string) (*sopr.Rows, error)
	Dump(w io.Writer) error
	Stats() sopr.Stats
	CurrentLSN() uint64
}

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// MaxFrame caps request and response payload sizes (default
	// wire.DefaultMaxFrame).
	MaxFrame int
	// ReadTimeout bounds the wait for the next request frame on an open
	// connection; a client idle longer is disconnected (default 5m).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response (default 30s).
	WriteTimeout time.Duration
	// ReplWaitTimeout bounds how long a replica holds a query waiting for
	// the client's MinLSN before answering CodeLagging (default 5s).
	ReplWaitTimeout time.Duration
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

const (
	defaultReadTimeout  = 5 * time.Minute
	defaultWriteTimeout = 30 * time.Second
	defaultReplWait     = 5 * time.Second
)

// ErrServerClosed is returned by Serve after Shutdown completes.
var ErrServerClosed = errors.New("server: closed")

// Server serves the wire protocol from one shared database.
type Server struct {
	db   DB
	node *repl.Node // db as a replication node; nil for any other backend
	cfg  Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // one per live connection goroutine

	accepted    atomic.Int64
	active      atomic.Int64
	execs       atomic.Int64
	batchExecs  atomic.Int64
	queries     atomic.Int64
	dumps       atomic.Int64
	statsReqs   atomic.Int64
	pings       atomic.Int64
	errorsSent  atomic.Int64
	badFrames   atomic.Int64
	inFlight    atomic.Int64
	drainedReqs atomic.Int64
}

// conn is one client session. busy and cut are guarded by Server.mu.
type conn struct {
	nc   net.Conn
	busy bool // processing a request
	cut  bool // socket closed by Shutdown; drop anything half-read
}

// New builds a Server over a shared database. The database may be used by
// other goroutines too; the server adds no ordering beyond the wrapper's.
func New(db DB, cfg Config) *Server {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = defaultReadTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.ReplWaitTimeout <= 0 {
		cfg.ReplWaitTimeout = defaultReplWait
	}
	node, _ := db.(*repl.Node)
	return &Server{db: db, node: node, cfg: cfg, conns: map[*conn]struct{}{}}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen starts listening on addr (host:port; port 0 picks a free one).
// Use the returned listener with Serve; its Addr reports the bound address.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error: ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown stops accepting connections, disconnects idle sessions, and
// waits for requests already executing to complete and be answered (each is
// counted in DrainedReqs). It returns ctx's error if the drain does not
// finish in time, after force-closing the stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		if !c.busy {
			c.cut = true
			c.nc.Close() // unblocks the pending frame read
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the front-end's own counters (the engine's counters come
// from the shared database).
func (s *Server) Stats() wire.ServerStats {
	return wire.ServerStats{
		Accepted:    s.accepted.Load(),
		Active:      s.active.Load(),
		Execs:       s.execs.Load(),
		BatchExecs:  s.batchExecs.Load(),
		Queries:     s.queries.Load(),
		Dumps:       s.dumps.Load(),
		StatsReqs:   s.statsReqs.Load(),
		Pings:       s.pings.Load(),
		Errors:      s.errorsSent.Load(),
		BadFrames:   s.badFrames.Load(),
		InFlight:    s.inFlight.Load(),
		DrainedReqs: s.drainedReqs.Load(),
	}
}

// beginRequest marks c busy so Shutdown will drain rather than cut it.
// It reports false when the connection was already closed by Shutdown.
func (s *Server) beginRequest(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.cut {
		return false
	}
	c.busy = true
	return true
}

// endRequest marks c idle again; it reports whether the server is draining,
// in which case the session must end.
func (s *Server) endRequest(c *conn) (draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.busy = false
	return s.draining
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	_ = c.nc.Close()
	s.active.Add(-1)
	s.wg.Done()
}

func (s *Server) serveConn(c *conn) {
	defer s.removeConn(c)
	peer := c.nc.RemoteAddr()
	s.logf("conn %v: open", peer)
	for {
		// A failed deadline set means the connection is already dead (or
		// closing); without a deadline the next read could block forever,
		// so tear the session down instead.
		if err := c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			s.logf("conn %v: set read deadline: %v", peer, err)
			return
		}
		typ, payload, err := wire.ReadFrame(c.nc, s.cfg.MaxFrame)
		if err != nil {
			switch {
			case err == io.EOF:
				s.logf("conn %v: closed by peer", peer)
			case errors.Is(err, wire.ErrFrameTooLarge):
				// The oversized payload is still in the stream, but its
				// declared length is known, so the session is recoverable:
				// drain exactly that many bytes (still under the read
				// deadline set above), answer the typed frame_too_large
				// error, and resynchronize on the next frame boundary. The
				// client can split the request — an oversized batch, say —
				// and resend on the same connection.
				s.badFrames.Add(1)
				var fse *wire.FrameSizeError
				if errors.As(err, &fse) {
					if _, derr := io.CopyN(io.Discard, c.nc, int64(fse.Declared)); derr == nil {
						s.logf("conn %v: drained oversized %s frame (%d bytes)", peer, wire.TypeName(typ), fse.Declared)
						if s.writeError(c, wire.ErrorResponse{Code: wire.CodeFrameTooLarge, Message: err.Error()}) {
							continue
						}
						return
					}
				}
				// No declared length or the drain failed: the stream cannot
				// be trusted; tell the client why, then cut the connection.
				s.writeError(c, wire.ErrorResponse{Code: wire.CodeTooLarge, Message: err.Error()})
				s.logf("conn %v: %v", peer, err)
			case errors.Is(err, net.ErrClosed):
				s.logf("conn %v: closed during shutdown", peer)
			default:
				s.badFrames.Add(1)
				s.logf("conn %v: read: %v", peer, err)
			}
			return
		}
		if typ == wire.MsgReplJoin {
			// A stream session is long-lived and deliberately never marked
			// busy: Shutdown cuts stream connections instead of draining
			// them, and the follower reconnects to the next primary.
			s.handleReplJoin(c, payload)
			return
		}
		if !s.beginRequest(c) {
			return // shutdown cut the session between frames
		}
		s.inFlight.Add(1)
		ok := s.handle(c, typ, payload)
		s.inFlight.Add(-1)
		draining := s.endRequest(c)
		if draining {
			s.drainedReqs.Add(1)
		}
		if !ok || draining {
			return
		}
	}
}

// handle dispatches one request and writes its response; it reports whether
// the connection is still usable. Locking is delegated to the shared
// SynchronizedDB: MsgExec lands on its exclusive lock (one operation-block
// stream, per the paper's Section 2.1), while MsgQuery, MsgStats, and
// MsgDump land on its shared lock, so read requests from different
// connections run concurrently.
func (s *Server) handle(c *conn, typ byte, payload []byte) bool {
	switch typ {
	case wire.MsgPing:
		s.pings.Add(1)
		return s.write(c, wire.MsgPong, nil)

	case wire.MsgExec:
		s.execs.Add(1)
		var req wire.ExecRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			s.badFrames.Add(1)
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
		}
		if proceed, alive := s.gateEpoch(c, req.Epoch); !proceed {
			return alive
		}
		res, err := s.db.Exec(req.Src)
		if err != nil {
			return s.writeError(c, execError(err))
		}
		return s.writeExecResult(c, wire.MsgExecResult, res)

	case wire.MsgExecBatch:
		s.batchExecs.Add(1)
		var req wire.ExecBatchRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			s.badFrames.Add(1)
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
		}
		if proceed, alive := s.gateEpoch(c, req.Epoch); !proceed {
			return alive
		}
		res, err := s.db.ExecBatch(req.Stmts)
		if err != nil {
			return s.writeError(c, execError(err))
		}
		return s.writeExecResult(c, wire.MsgExecBatchResult, res)

	case wire.MsgQuery:
		s.queries.Add(1)
		var req wire.QueryRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			s.badFrames.Add(1)
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
		}
		if req.MinLSN > 0 && s.node != nil {
			// Read-your-writes: hold the read until the node has applied the
			// client's token. Any other backend serves current state — it is
			// the source of truth.
			if err := s.node.WaitForLSN(req.MinLSN, s.cfg.ReplWaitTimeout); err != nil {
				return s.writeError(c, execError(err))
			}
		}
		rows, err := s.db.Query(req.Src)
		if err != nil {
			return s.writeError(c, execError(err))
		}
		wrows, err := wire.RowsOf(rows.Columns, rows.Data)
		if err != nil {
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeInternal, Message: err.Error()})
		}
		return s.write(c, wire.MsgQueryResult, wrows)

	case wire.MsgDump:
		s.dumps.Add(1)
		var b strings.Builder
		if err := s.db.Dump(&b); err != nil {
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeInternal, Message: err.Error()})
		}
		return s.write(c, wire.MsgDumpResult, wire.DumpResponse{Script: b.String()})

	case wire.MsgReplPromote:
		if s.node == nil {
			return s.writeError(c, wire.ErrorResponse{
				Code:    wire.CodeExec,
				Message: "this node cannot be promoted",
			})
		}
		// An empty payload is a legacy promote with no target epoch; the
		// node still opens one above everything it has seen.
		var req wire.ReplPromoteRequest
		if len(payload) > 0 {
			if err := wire.Unmarshal(payload, &req); err != nil {
				s.badFrames.Add(1)
				return s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
			}
		}
		epoch, err := s.node.Promote(req.Epoch)
		if err != nil {
			return s.writeError(c, execError(err))
		}
		resp := &wire.ReplPromotedResponse{Epoch: epoch, LSN: s.db.CurrentLSN()}
		s.logf("conn %v: promoted to accept writes at epoch %d", c.nc.RemoteAddr(), epoch)
		return s.write(c, wire.MsgReplPromoted, resp)

	case wire.MsgReplFollow:
		if s.node == nil {
			return s.writeError(c, wire.ErrorResponse{
				Code:    wire.CodeExec,
				Message: "this node cannot follow a leader",
			})
		}
		var req wire.ReplFollowRequest
		if err := wire.Unmarshal(payload, &req); err != nil {
			s.badFrames.Add(1)
			return s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
		}
		if err := s.node.Follow(req.Leader, req.Epoch); err != nil {
			return s.writeError(c, execError(err))
		}
		s.logf("conn %v: following %s at epoch %d", c.nc.RemoteAddr(), req.Leader, req.Epoch)
		return s.write(c, wire.MsgReplFollowed, &wire.ReplFollowedResponse{Epoch: req.Epoch})

	case wire.MsgStats:
		s.statsReqs.Add(1)
		var rs *wire.ReplStats
		if s.node != nil {
			rs = s.node.ReplStats()
		}
		return s.write(c, wire.MsgStatsResult, wire.StatsResponse{
			Repl:   rs,
			Engine: s.db.Stats(),
			Server: s.Stats(),
		})

	default:
		s.badFrames.Add(1)
		return s.writeError(c, wire.ErrorResponse{
			Code:    wire.CodeBadFrame,
			Message: fmt.Sprintf("unknown request type %s", wire.TypeName(typ)),
		})
	}
}

// gateEpoch runs the epoch gate for a write request: a request from a
// cluster view older than this node's is refused outright (the client must
// re-probe), and a request revealing a newer epoch fences a stale leader
// before anything executes — its Exec then answers the typed fenced error
// instead of extending a dead history. proceed reports whether the request
// may execute; when it may not, alive reports whether the connection is
// still usable.
func (s *Server) gateEpoch(c *conn, reqEpoch uint64) (proceed, alive bool) {
	if reqEpoch == 0 || s.node == nil {
		return true, true
	}
	if cur := s.node.Epoch(); reqEpoch < cur {
		return false, s.writeError(c, wire.ErrorResponse{
			Code:    wire.CodeStaleEpoch,
			Epoch:   cur,
			Message: fmt.Sprintf("request epoch %d is older than node epoch %d", reqEpoch, cur),
		})
	} else if reqEpoch > cur {
		s.node.ObserveEpoch(reqEpoch)
	}
	return true, true
}

// writeExecResult converts res for the wire, stamps the LSN token, epoch
// and sync flag, and writes it as typ.
func (s *Server) writeExecResult(c *conn, typ byte, res *sopr.Result) bool {
	resp, err := execResponse(res)
	if err != nil {
		return s.writeError(c, wire.ErrorResponse{Code: wire.CodeInternal, Message: err.Error()})
	}
	resp.LSN = s.db.CurrentLSN()
	if s.node != nil {
		resp.Epoch = s.node.Epoch()
	}
	if res != nil {
		resp.Synced = res.Synced
	}
	return s.write(c, typ, resp)
}

// handleReplJoin turns the connection into a WAL stream session. It
// returns when the stream ends; the caller closes the connection.
func (s *Server) handleReplJoin(c *conn, payload []byte) {
	peer := c.nc.RemoteAddr()
	var req wire.ReplJoinRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		s.badFrames.Add(1)
		s.writeError(c, wire.ErrorResponse{Code: wire.CodeBadFrame, Message: err.Error()})
		return
	}
	var src *repl.Source
	if s.node != nil {
		src = s.node.ReplSource()
	}
	if src == nil {
		s.writeError(c, wire.ErrorResponse{
			Code:    wire.CodeNotPrimary,
			Message: "this server does not ship a WAL (in-memory, or an in-memory replica)",
		})
		return
	}
	// The stream manages its own deadlines from here; clear the
	// request-cycle read deadline set by serveConn.
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		s.logf("conn %v: clear read deadline: %v", peer, err)
		return
	}
	s.logf("conn %v: repl stream join from lsn %d (epoch %d)", peer, req.FromLSN, req.Epoch)
	if err := src.ServeConn(c.nc, req); err != nil && !errors.Is(err, net.ErrClosed) {
		s.logf("conn %v: repl stream end: %v", peer, err)
	}
}

// execError classifies a script failure, attaching the line for parse errors.
func execError(err error) wire.ErrorResponse {
	var pe *sopr.ParseError
	if errors.As(err, &pe) {
		return wire.ErrorResponse{Code: wire.CodeParse, Message: err.Error(), Line: pe.Line}
	}
	if errors.Is(err, repl.ErrReadOnly) {
		return wire.ErrorResponse{Code: wire.CodeReadOnly, Message: err.Error()}
	}
	var le *repl.LagError
	if errors.As(err, &le) {
		return wire.ErrorResponse{Code: wire.CodeLagging, Message: err.Error()}
	}
	var fe *repl.FencedError
	if errors.As(err, &fe) {
		return wire.ErrorResponse{Code: wire.CodeFenced, Epoch: fe.Epoch, Message: err.Error()}
	}
	var se *repl.StaleEpochError
	if errors.As(err, &se) {
		return wire.ErrorResponse{Code: wire.CodeStaleEpoch, Epoch: se.Epoch, Message: err.Error()}
	}
	return wire.ErrorResponse{Code: wire.CodeExec, Message: err.Error()}
}

// execResponse converts a sopr.Result for the wire.
func execResponse(res *sopr.Result) (wire.ExecResponse, error) {
	out := wire.ExecResponse{RolledBack: res.RolledBack, RollbackRule: res.RollbackRule}
	for _, f := range res.Firings {
		out.Firings = append(out.Firings, wire.Firing{Rule: f.Rule, Effect: f.Effect})
	}
	for _, q := range res.Results {
		rows, err := wire.RowsOf(q.Columns, q.Data)
		if err != nil {
			return wire.ExecResponse{}, err
		}
		out.Results = append(out.Results, rows)
	}
	return out, nil
}

func (s *Server) writeError(c *conn, er wire.ErrorResponse) bool {
	s.errorsSent.Add(1)
	return s.write(c, wire.MsgError, er)
}

func (s *Server) write(c *conn, typ byte, v any) bool {
	// As in serveConn: a connection that cannot take a deadline cannot be
	// written with bounded blocking, so report the session unusable.
	if err := c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		s.logf("conn %v: set write deadline: %v", c.nc.RemoteAddr(), err)
		return false
	}
	if err := wire.WriteMessage(c.nc, typ, v, s.cfg.MaxFrame); err != nil {
		s.logf("conn %v: write %s: %v", c.nc.RemoteAddr(), wire.TypeName(typ), err)
		return false
	}
	return true
}
