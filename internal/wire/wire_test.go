package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"sopr/internal/wal"
)

// TestFrameRoundTripProperty writes pseudo-random frames of many sizes and
// types through a buffer and checks they read back bit-identically, frame
// boundaries intact.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	type frame struct {
		typ     byte
		payload []byte
	}
	var frames []frame
	sizes := []int{0, 1, 2, 7, 64, 1024, 65536, 1 << 18}
	for i := 0; i < 100; i++ {
		n := sizes[rng.Intn(len(sizes))]
		payload := make([]byte, n)
		rng.Read(payload)
		typ := byte(rng.Intn(256))
		frames = append(frames, frame{typ, payload})
		if err := WriteFrame(&buf, typ, payload, 0); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
	}
	for i, f := range frames {
		typ, payload, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if typ != f.typ {
			t.Fatalf("frame %d: type = 0x%02x, want 0x%02x", i, typ, f.typ)
		}
		if !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(f.payload))
		}
	}
	if typ, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("after last frame: type 0x%02x err %v, want io.EOF", typ, err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, MsgExec, []byte(`{"src":"select 1"}`), 0); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix except the empty one must yield ErrUnexpectedEOF;
	// the empty prefix is a clean EOF between frames.
	for cut := 1; cut < len(raw); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrUnexpectedEOF", cut, len(raw), err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	const max = 128
	// Writing oversized payloads fails before touching the stream.
	var buf bytes.Buffer
	err := WriteFrame(&buf, MsgExec, make([]byte, max+1), max)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write left %d bytes on the stream", buf.Len())
	}
	// Reading a frame whose declared length exceeds max fails without
	// consuming the payload.
	if err := WriteFrame(&buf, MsgExec, make([]byte, max+1), 0); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	_, _, err = ReadFrame(&buf, max)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: err = %v, want ErrFrameTooLarge", err)
	}
	if got := before - buf.Len(); got != headerSize {
		t.Fatalf("oversized read consumed %d bytes, want only the %d-byte header", got, headerSize)
	}
	// A frame exactly at max passes.
	buf.Reset()
	if err := WriteFrame(&buf, MsgPing, make([]byte, max), max); err != nil {
		t.Fatalf("write at max: %v", err)
	}
	if _, payload, err := ReadFrame(&buf, max); err != nil || len(payload) != max {
		t.Fatalf("read at max: len %d err %v", len(payload), err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := ExecResponse{
		RolledBack:   true,
		RollbackRule: "guard",
		Firings:      []Firing{{Rule: "r", Effect: "[I:0 D:2 U:0 S:0]"}},
	}
	if err := WriteMessage(&buf, MsgExecResult, want, 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf, 0)
	if err != nil || typ != MsgExecResult {
		t.Fatalf("type 0x%02x err %v", typ, err)
	}
	var got ExecResponse
	if err := Unmarshal(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.RollbackRule != "guard" || !got.RolledBack || len(got.Firings) != 1 || got.Firings[0].Rule != "r" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCellRoundTrip(t *testing.T) {
	cols := []string{"a", "b", "c", "d", "e"}
	data := [][]any{
		{nil, int64(-7), 3.25, "it's", true},
		{int64(1 << 62), 0.0, "", false, nil},
	}
	rows, err := RowsOf(cols, data)
	if err != nil {
		t.Fatal(err)
	}
	gotCols, gotData, err := rows.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(gotCols, ",") != strings.Join(cols, ",") {
		t.Fatalf("columns %v", gotCols)
	}
	for i := range data {
		for j := range data[i] {
			if gotData[i][j] != data[i][j] {
				t.Errorf("cell [%d][%d] = %#v, want %#v", i, j, gotData[i][j], data[i][j])
			}
		}
	}
	// int64 and float64 stay distinct through JSON.
	if _, ok := gotData[0][1].(int64); !ok {
		t.Errorf("int cell decoded as %T", gotData[0][1])
	}
	if _, ok := gotData[0][2].(float64); !ok {
		t.Errorf("float cell decoded as %T", gotData[0][2])
	}
	if _, err := wal.CellOf(struct{}{}); err == nil {
		t.Error("CellOf accepted an unsupported type")
	}
	if _, err := (Cell{Kind: "z"}).Value(); err == nil {
		t.Error("Value accepted an unknown kind")
	}
}

func TestTypeName(t *testing.T) {
	for typ, want := range map[byte]string{
		MsgExec: "exec", MsgQuery: "query", MsgDump: "dump", MsgStats: "stats",
		MsgPing: "ping", MsgExecResult: "exec_result", MsgQueryResult: "query_result",
		MsgDumpResult: "dump_result", MsgStatsResult: "stats_result",
		MsgPong: "pong", MsgError: "error", 0x42: "0x42",
	} {
		if got := TypeName(typ); got != want {
			t.Errorf("TypeName(0x%02x) = %q, want %q", typ, got, want)
		}
	}
}

// TestStatsResponseJSONPinned pins the stats response bytes with every
// counter non-zero, so the omitempty keys appear too: the counter list is
// declared once, and a change to a field name, a tag or the field order
// shows here as a changed wire format.
func TestStatsResponseJSONPinned(t *testing.T) {
	resp := StatsResponse{
		Engine: EngineStats{
			Committed: 1, RolledBack: 2, ExternalTransitions: 3,
			RuleConsiderations: 4, RuleFirings: 5, RuleVisits: 6,
			IndexLookups: 7, HeapScans: 8, WALAppends: 9, WALBytes: 10,
			RecoveredRecords: 11, Checkpoints: 12, GroupCommits: 13,
			GroupedTxns: 14, PlannedQueries: 15, PlanProbeFallbacks: 16,
		},
		Server: ServerStats{
			Accepted: 1, Active: 2, Execs: 3, BatchExecs: 4, Queries: 5,
			Dumps: 6, StatsReqs: 7, Pings: 8, Errors: 9, BadFrames: 10,
			InFlight: 11, DrainedReqs: 12,
		},
		Repl: &ReplStats{
			Role: "primary", LSN: 1, PrimaryLSN: 2, Lag: 3, Connected: true,
			Promoted: true, Followers: 4, MinFollowerLSN: 5, Epoch: 6,
			Durable: true, Fenced: true, Leader: "h:1", SyncFollowers: 7,
			SyncTimeouts: 8, Resets: 9, DiscardedRecords: 10,
		},
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"engine":{"committed":1,"rolled_back":2,"external_transitions":3,` +
		`"rule_considerations":4,"rule_firings":5,"rule_visits":6,"index_lookups":7,` +
		`"heap_scans":8,"wal_appends":9,"wal_bytes":10,"recovered_records":11,` +
		`"checkpoints":12,"group_commits":13,"grouped_txns":14,"planned_queries":15,` +
		`"plan_probe_fallbacks":16},` +
		`"server":{"accepted":1,"active":2,"execs":3,"batch_execs":4,"queries":5,` +
		`"dumps":6,"stats_reqs":7,"pings":8,"errors":9,"bad_frames":10,"in_flight":11,` +
		`"drained_reqs":12},` +
		`"repl":{"role":"primary","lsn":1,"primary_lsn":2,"lag":3,"connected":true,` +
		`"promoted":true,"followers":4,"min_follower_lsn":5,"epoch":6,"durable":true,` +
		`"fenced":true,"leader":"h:1","sync_followers":7,"sync_timeouts":8,"resets":9,` +
		`"discarded_records":10}}`
	if string(got) != want {
		t.Fatalf("stats response JSON changed:\n got %s\nwant %s", got, want)
	}
}
