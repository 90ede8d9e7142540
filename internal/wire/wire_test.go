package wire

import (
	"bytes"
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
