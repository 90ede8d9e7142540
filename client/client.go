// Package client is the Go client for a soprd server: it speaks the wire
// protocol over TCP and returns the same Result/Rows types the in-process
// sopr API produces, so a remote engine is a drop-in for a local one.
//
//	c, err := client.Dial("localhost:5477")
//	if err != nil { ... }
//	defer c.Close()
//	res, err := c.Exec(`insert into emp values ('jane', 1, 60000, 0)`)
//	rows, err := c.Query(`select name from emp`)
//
// A Client is safe for concurrent use: requests are serialized on the one
// connection, mirroring the engine's single stream of operation blocks.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sopr"
	"sopr/internal/wire"
)

// Error codes carried by RemoteError, mirroring the wire protocol's.
const (
	CodeParse    = wire.CodeParse
	CodeExec     = wire.CodeExec
	CodeBadFrame = wire.CodeBadFrame
	CodeTooLarge = wire.CodeTooLarge
	CodeShutdown = wire.CodeShutdown
	CodeInternal = wire.CodeInternal
	// CodeFrameTooLarge reports an oversized request frame the server
	// drained: the connection stays usable — split or shrink the request
	// and resend.
	CodeFrameTooLarge = wire.CodeFrameTooLarge

	CodeReadOnly   = wire.CodeReadOnly
	CodeNotPrimary = wire.CodeNotPrimary
	CodeLagging    = wire.CodeLagging
	CodeDiverged   = wire.CodeDiverged
	CodeFenced     = wire.CodeFenced
	CodeStaleEpoch = wire.CodeStaleEpoch
)

// RemoteError is a failure reported by the server. Line is the 1-based line
// within the submitted script for CodeParse errors, 0 otherwise. Epoch is
// the fencing epoch for CodeFenced and the node's epoch for
// CodeStaleEpoch, 0 otherwise.
type RemoteError struct {
	Code    string
	Message string
	Line    int
	Epoch   uint64
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s error: %s", e.Code, e.Message)
}

// ConnError is a transport-level failure: the dial, send, or receive died,
// as opposed to the server answering with an error. After a ConnError from
// a request the connection is unusable — the caller should Close and
// re-Dial; after a RemoteError it remains usable.
type ConnError struct {
	Op  string // what failed: "dial", "send exec", "recv query", ...
	Err error
}

func (e *ConnError) Error() string { return fmt.Sprintf("client: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying network error to errors.Is/As.
func (e *ConnError) Unwrap() error { return e.Err }

// IsConn reports whether err is a transport-level failure (as opposed to a
// server-reported RemoteError).
func IsConn(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}

// ServerStats are the server front-end's counters (see Stats).
type ServerStats struct {
	Accepted    int64 // connections accepted
	Active      int64 // connections currently open
	Execs       int64 // Exec requests served
	BatchExecs  int64 // ExecBatch requests served
	Queries     int64 // Query requests served
	Dumps       int64 // Dump requests served
	StatsReqs   int64 // Stats requests served
	Pings       int64 // Ping requests served
	Errors      int64 // error responses sent
	BadFrames   int64 // framing errors seen
	InFlight    int64 // requests being processed right now
	DrainedReqs int64 // requests completed during shutdown drain
}

// ReplStats describes a node's replication state (see Stats.Repl); the
// fields mirror the wire protocol's ReplStats.
type ReplStats struct {
	Role             string // "primary" or "replica"
	LSN              uint64 // own position: durable LSN (primary), applied LSN (replica)
	PrimaryLSN       uint64 // replica's last view of the primary's LSN
	Lag              int64  // PrimaryLSN - LSN on a replica
	Connected        bool   // replica's stream to the primary is up
	Promoted         bool   // node leads an epoch a promotion opened
	Followers        int    // connected stream sessions on a primary
	MinFollowerLSN   uint64 // lowest acked LSN across followers (retention horizon)
	Epoch            uint64 // node's promotion epoch (0 before any failover)
	Durable          bool   // node persists its state in its own WAL
	Fenced           bool   // node observed a higher epoch and refuses writes
	Leader           string // upstream address a replica streams from
	SyncFollowers    int    // configured sync-commit ack quorum (0 = async)
	SyncTimeouts     int64  // commits that degraded to async on timeout
	Resets           int64  // reset-and-rebootstrap cycles on a replica
	DiscardedRecords int64  // records dropped on divergence resets
}

// Stats bundles the remote engine's counters with the server's own.
type Stats struct {
	Engine sopr.Stats
	Server ServerStats
	// Repl is the node's replication state; nil on a server that neither
	// ships nor follows a WAL stream.
	Repl *ReplStats
}

// Option configures a Client at Dial.
type Option func(*Client)

// WithMaxFrame overrides the frame-size cap (default wire.DefaultMaxFrame).
// It must not exceed the server's, or large requests will be cut off.
func WithMaxFrame(n int) Option { return func(c *Client) { c.maxFrame = n } }

// WithTimeout bounds each request round trip (default 2m; the server may
// disconnect idle clients on its own schedule regardless).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithLogf routes client-side event lines (cluster failover decisions,
// endpoint state changes) to f. Nil (the default) discards them.
func WithLogf(f func(format string, args ...any)) Option {
	return func(c *Client) { c.logf = f }
}

// WithDialRetry retries a failed dial up to n more times, sleeping backoff
// before the first retry and doubling it each attempt (capped at 30x, with
// up to 50% random jitter added so restarting fleets do not reconnect in
// lockstep). Only transient failures are retried: an unresolvable or
// malformed address fails immediately.
func WithDialRetry(n int, backoff time.Duration) Option {
	return func(c *Client) {
		c.dialRetries = n
		c.dialBackoff = backoff
	}
}

// Client is a connection to a soprd server.
type Client struct {
	mu       sync.Mutex
	conn     net.Conn
	maxFrame int
	timeout  time.Duration
	logf     func(format string, args ...any)

	dialRetries int
	dialBackoff time.Duration
}

// Dial connects to a soprd server at addr (host:port).
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{maxFrame: wire.DefaultMaxFrame, timeout: 2 * time.Minute, dialBackoff: 100 * time.Millisecond}
	for _, o := range opts {
		o(c)
	}
	backoff := c.dialBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := 30 * backoff
	var err error
	for attempt := 0; ; attempt++ {
		var conn net.Conn
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			c.conn = conn
			return c, nil
		}
		if attempt >= c.dialRetries || !retryableDial(err) {
			break
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		time.Sleep(sleep)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	return nil, &ConnError{Op: "dial", Err: err}
}

// retryableDial distinguishes transient dial failures (refused, timeout,
// unreachable — the server may just not be up yet) from permanent ones (a
// malformed address or a name that does not resolve).
func retryableDial(err error) bool {
	var ae *net.AddrError
	if errors.As(err, &ae) {
		return false
	}
	var de *net.DNSError
	if errors.As(err, &de) {
		return de.IsTemporary || de.IsTimeout
	}
	return true
}

// Close terminates the connection. Requests in other goroutines fail.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and decodes its response into out (whose type
// must match wantType's payload; nil out for payload-less responses).
// Transport failures come back as *ConnError, server-reported failures as
// *RemoteError.
func (c *Client) roundTrip(reqType byte, req any, wantType byte, out any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		// A deadline that cannot be set means the connection is already
		// closed or broken; without one a dead peer could block us forever.
		return &ConnError{Op: "deadline " + wire.TypeName(reqType), Err: err}
	}
	if err := wire.WriteMessage(c.conn, reqType, req, c.maxFrame); err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// Nothing touched the wire; the connection is still usable.
			return fmt.Errorf("client: send %s: %w", wire.TypeName(reqType), err)
		}
		return &ConnError{Op: "send " + wire.TypeName(reqType), Err: err}
	}
	typ, payload, err := wire.ReadFrame(c.conn, c.maxFrame)
	if err != nil {
		return &ConnError{Op: "recv " + wire.TypeName(reqType), Err: err}
	}
	switch typ {
	case wantType:
		// A payload-less response (an old-style promote ack) decodes into
		// nothing; out keeps its zero value.
		if out == nil || len(payload) == 0 {
			return nil
		}
		return wire.Unmarshal(payload, out)
	case wire.MsgError:
		var er wire.ErrorResponse
		if err := wire.Unmarshal(payload, &er); err != nil {
			return err
		}
		return &RemoteError{Code: er.Code, Message: er.Message, Line: er.Line, Epoch: er.Epoch}
	default:
		return fmt.Errorf("client: unexpected %s response to %s",
			wire.TypeName(typ), wire.TypeName(reqType))
	}
}

// Exec runs a script on the server as the next operation blocks in its
// stream, exactly like sopr.DB.Exec runs it locally.
func (c *Client) Exec(src string) (*sopr.Result, error) {
	return c.ExecAt(src, 0)
}

// ExecAt is Exec carrying the caller's cluster epoch. A server at a newer
// epoch refuses with CodeStaleEpoch (the caller must re-probe the
// cluster); a server at an older one learns of the epoch and fences
// itself — the write answers CodeFenced instead of landing on a zombie
// primary's dead history. Epoch 0 claims nothing.
func (c *Client) ExecAt(src string, epoch uint64) (*sopr.Result, error) {
	var resp wire.ExecResponse
	if err := c.roundTrip(wire.MsgExec, wire.ExecRequest{Src: src, Epoch: epoch}, wire.MsgExecResult, &resp); err != nil {
		return nil, err
	}
	return decodeExecResponse(resp)
}

// ExecBatch runs a list of data-manipulation statements on the server as
// ONE operation block: one wire frame, one engine pass, one commit record,
// one (shared) fsync — exactly like sopr.DB.ExecBatch runs it locally.
// Definitions are rejected; rules process the block's net effect once, as
// they would for the same statements in one script.
func (c *Client) ExecBatch(stmts []string) (*sopr.Result, error) {
	return c.ExecBatchAt(stmts, 0)
}

// ExecBatchAt is ExecBatch carrying the caller's cluster epoch (see
// ExecAt for the epoch-gate semantics).
func (c *Client) ExecBatchAt(stmts []string, epoch uint64) (*sopr.Result, error) {
	var resp wire.ExecResponse
	req := wire.ExecBatchRequest{Stmts: stmts, Epoch: epoch}
	if err := c.roundTrip(wire.MsgExecBatch, req, wire.MsgExecBatchResult, &resp); err != nil {
		return nil, err
	}
	return decodeExecResponse(resp)
}

func decodeExecResponse(resp wire.ExecResponse) (*sopr.Result, error) {
	res := &sopr.Result{
		RolledBack: resp.RolledBack, RollbackRule: resp.RollbackRule,
		LSN: resp.LSN, Epoch: resp.Epoch, Synced: resp.Synced,
	}
	for _, f := range resp.Firings {
		res.Firings = append(res.Firings, sopr.Firing{Rule: f.Rule, Effect: f.Effect})
	}
	for _, r := range resp.Results {
		rows, err := decodeRows(r)
		if err != nil {
			return nil, err
		}
		res.Results = append(res.Results, rows)
	}
	return res, nil
}

// Query evaluates a single SELECT on the server, outside any transaction.
func (c *Client) Query(src string) (*sopr.Rows, error) {
	return c.QueryAt(src, 0)
}

// QueryAt is Query with a read-your-writes floor: a replica holds the
// read until it has applied minLSN (a token from Result.LSN), answering
// CodeLagging if it cannot in time. minLSN 0 reads current state; a
// primary ignores the floor (it is the source of truth).
func (c *Client) QueryAt(src string, minLSN uint64) (*sopr.Rows, error) {
	var resp wire.Rows
	req := wire.QueryRequest{Src: src, MinLSN: minLSN}
	if err := c.roundTrip(wire.MsgQuery, req, wire.MsgQueryResult, &resp); err != nil {
		return nil, err
	}
	return decodeRows(resp)
}

// Dump fetches a SQL script recreating the server's database.
func (c *Client) Dump() (string, error) {
	var resp wire.DumpResponse
	if err := c.roundTrip(wire.MsgDump, nil, wire.MsgDumpResult, &resp); err != nil {
		return "", err
	}
	return resp.Script, nil
}

// Stats fetches the server's engine and front-end counters.
func (c *Client) Stats() (*Stats, error) {
	var resp wire.StatsResponse
	if err := c.roundTrip(wire.MsgStats, nil, wire.MsgStatsResult, &resp); err != nil {
		return nil, err
	}
	return &Stats{
		Engine: resp.Engine,
		Server: ServerStats(resp.Server),
		Repl:   replStats(resp.Repl),
	}, nil
}

func replStats(rs *wire.ReplStats) *ReplStats {
	if rs == nil {
		return nil
	}
	out := ReplStats(*rs)
	return &out
}

// Ping checks the server is alive and answering.
func (c *Client) Ping() error {
	return c.roundTrip(wire.MsgPing, nil, wire.MsgPong, nil)
}

// Promote asks a replica to detach from its primary and accept writes in
// whatever epoch the node opens. It fails with a RemoteError on a node
// that cannot be promoted. Clients normally never call this directly —
// Cluster failover does.
func (c *Client) Promote() error {
	_, _, err := c.PromoteTo(0)
	return err
}

// PromoteTo is Promote with an explicit target epoch: the node opens
// max(epoch, its highest seen + 1), and reports the epoch actually opened
// together with its durable LSN. Epoch 0 lets the node pick.
func (c *Client) PromoteTo(epoch uint64) (openedEpoch, lsn uint64, err error) {
	var resp wire.ReplPromotedResponse
	var req any
	if epoch > 0 {
		req = wire.ReplPromoteRequest{Epoch: epoch}
	}
	if err := c.roundTrip(wire.MsgReplPromote, req, wire.MsgReplPromoted, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Epoch, resp.LSN, nil
}

// Follow points the node at a leader for the given epoch: a replica
// re-points its stream and resumes from its applied LSN; a promoted node
// or old primary demotes itself into the leader's follower, truncating
// any unshipped suffix. The epoch must be current or it fails with
// CodeStaleEpoch. Cluster failover calls this on the new leader's
// siblings and, once reachable again, on the deposed primary.
func (c *Client) Follow(leader string, epoch uint64) error {
	req := wire.ReplFollowRequest{Leader: leader, Epoch: epoch}
	return c.roundTrip(wire.MsgReplFollow, req, wire.MsgReplFollowed, nil)
}

// IsRemote reports whether err is a server-reported failure with the given
// code ("" matches any RemoteError).
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && (code == "" || re.Code == code)
}

func decodeRows(r wire.Rows) (*sopr.Rows, error) {
	cols, data, err := r.Decode()
	if err != nil {
		return nil, err
	}
	return sopr.NewRows(cols, data), nil
}
