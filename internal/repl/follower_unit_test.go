package repl

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sopr/internal/wal"
	"sopr/internal/wire"
)

// TestApplyRecordRejectsGaps: a record whose LSN is not exactly
// applied+1 means the stream skipped or repeated something — the
// follower must refuse it rather than apply out of order.
func TestApplyRecordRejectsGaps(t *testing.T) {
	f, err := NewFollower("unused:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(lsn uint64) *wire.ReplRecord {
		payload, _ := json.Marshal(map[string]any{"last_handle": lsn})
		return &wire.ReplRecord{LSN: lsn, Kind: 1, Payload: payload}
	}
	if err := f.applyRecord(rec(3)); err == nil {
		t.Fatal("gap (first record lsn 3, want 1) accepted")
	}
	if err := f.applyRecord(rec(1)); err != nil {
		t.Fatalf("in-order record rejected: %v", err)
	}
	if err := f.applyRecord(rec(1)); err == nil {
		t.Fatal("repeated lsn 1 accepted")
	}
	if got := f.AppliedLSN(); got != 1 {
		t.Fatalf("applied = %d, want 1", got)
	}
}

// TestSetConnRefusedAfterStop: a connection Run dials while Close runs
// must not be kept, or a stream read on it would block Close forever:
// once stop is closed, setConn refuses and closes it.
func TestSetConnRefusedAfterStop(t *testing.T) {
	f, err := NewFollower("unused:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.stopOnce.Do(func() { close(f.stop) })
	a, b := net.Pipe()
	defer b.Close()
	if f.setConn(a) {
		t.Fatal("setConn accepted a connection after stop was closed")
	}
	if _, err := a.Write([]byte{0}); !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on the refused end: %v, want it closed", err)
	}
	f.connMu.Lock()
	kept := f.conn
	f.connMu.Unlock()
	if kept != nil {
		t.Fatal("setConn kept the refused connection")
	}
}

// TestApplyFailureResets: a record that decodes but cannot be applied
// leaves the follower reset to lsn 0, forcing a checkpoint re-bootstrap
// instead of serving half-applied state.
func TestApplyFailureResets(t *testing.T) {
	f, err := NewFollower("unused:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A DDL record whose script is garbage fails replay.
	payload, _ := json.Marshal(map[string]any{"stmt": "definitely not sql ;"})
	if err := f.applyRecord(&wire.ReplRecord{LSN: 1, Kind: 2, Payload: payload}); err == nil {
		t.Fatal("unreplayable record accepted")
	}
	if got := f.AppliedLSN(); got != 0 {
		t.Fatalf("applied = %d after failed apply, want 0 (reset)", got)
	}
}

func TestWaitForLSN(t *testing.T) {
	f, err := NewFollower("unused:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Timeout path: the typed lag error carries both positions.
	err = f.WaitForLSN(5, 20*time.Millisecond)
	var le *LagError
	if !errors.As(err, &le) || le.Need != 5 || le.Have != 0 {
		t.Fatalf("WaitForLSN = %v, want LagError{Need:5, Have:0}", err)
	}
	// Wake path: an advance past the floor releases the waiter.
	done := make(chan error, 1)
	go func() { done <- f.WaitForLSN(2, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	f.advanceTo(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitForLSN after advance: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForLSN never woke after advance")
	}
	// Promotion path: a promoted node satisfies any floor immediately.
	if _, err := f.Promote(0); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitForLSN(1_000_000, 10*time.Millisecond); err != nil {
		t.Fatalf("WaitForLSN on promoted node = %v, want nil", err)
	}
}

func TestExecReadOnlyUntilPromoted(t *testing.T) {
	f, err := NewFollower("unused:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec(`create table t (a int);`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Exec before promotion = %v, want ErrReadOnly", err)
	}
	if _, err := f.Promote(0); err != nil {
		t.Fatal(err)
	}
	if !f.Promoted() {
		t.Fatal("Promoted() false after Promote")
	}
	if _, err := f.Exec(`create table t (a int);`); err != nil {
		t.Fatalf("Exec after promotion: %v", err)
	}
	if st := f.ReplStats(); st.Role != "primary" || !st.Promoted {
		t.Fatalf("promoted stats = %+v", st)
	}
}

// TestPromotedDurableFollowerAcksOnlySyncedCommits: the engine appends a
// commit record without waiting for its fsync, so a promoted durable
// follower must wait for durability before acknowledging. An OS crash
// right after the acknowledgement (MemFS.DropUnsynced) must not lose the
// write.
func TestPromotedDurableFollowerAcksOnlySyncedCommits(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := Config{DataDir: "data", FS: fs}
	f, err := NewFollower("unused:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Promote(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec(`create table t (a int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec(`insert into t values (42)`); err != nil {
		t.Fatal(err)
	}
	fs.DropUnsynced() // crash: the old follower is abandoned, not closed

	f2, err := NewFollower("unused:0", cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var b strings.Builder
	if err := f2.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "INSERT INTO t VALUES (42)") {
		t.Fatalf("acknowledged insert lost in the crash; recovered dump:\n%s", b.String())
	}
}
