package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// capture redirects os.Stdout around fn.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		b.ReadFrom(r)
		done <- b.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestE1Trace verifies the experiment driver reproduces the Example 4.3
// firing sequence (the assertions mirror TestExample43Trace in the engine
// package; here we check the printed table).
func TestE1Trace(t *testing.T) {
	out := capture(t, e1)
	for _, frag := range []string{
		"salary_watch",
		"[I:0 D:1 U:0 S:0]",
		"[I:0 D:4 U:0 S:0]",
		"[I:0 D:3 U:0 S:0]",
		"[I:0 D:0 U:0 S:0]",
		"final: emp=0 dept=0",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("E1 output missing %q:\n%s", frag, out)
		}
	}
	if n := strings.Count(out, "mgr_cascade"); n != 3 {
		t.Errorf("mgr_cascade fired %d times in the table, want 3", n)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(5, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 5 {
		t.Errorf("calls = %d", calls)
	}
	if d < 500*time.Microsecond {
		t.Errorf("median implausibly small: %v", d)
	}
}

// TestB2Runs smoke-tests one fast experiment end to end.
func TestB2Runs(t *testing.T) {
	out := capture(t, b2)
	if !strings.Contains(out, "B2") || !strings.Contains(out, "ns/op") {
		t.Errorf("B2 output: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 5 {
		t.Errorf("B2 table too short:\n%s", out)
	}
}

// TestS1Run smoke-tests the server-throughput harness at small scale: all
// operations must complete and land in the audited table.
func TestS1Run(t *testing.T) {
	ops, elapsed := s1run(4, 64)
	if ops != 64 {
		t.Errorf("ops = %d, want 64", ops)
	}
	if elapsed <= 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
}

func TestOpStreamShape(t *testing.T) {
	ops := opStream(300)
	if len(ops) != 300 {
		t.Fatalf("ops = %d", len(ops))
	}
	var ins, del, upd int
	for _, op := range ops {
		switch {
		case len(op.Inserted) > 0:
			ins++
		case len(op.Deleted) > 0:
			del++
		case len(op.Updated) > 0:
			upd++
		}
	}
	if ins == 0 || del == 0 || upd == 0 {
		t.Errorf("op mix degenerate: ins=%d del=%d upd=%d", ins, del, upd)
	}
}

// TestUnknownExperiment: an unknown -exp name exits with status 2 and
// names every experiment there is, and only those.
func TestUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"NOPE", "B10", "B11", ""} {
		var stderr bytes.Buffer
		out := capture(t, func() {
			if code := run(exp, &stderr); code != 2 {
				t.Errorf("-exp %q: exit status %d, want 2", exp, code)
			}
		})
		if out != "" {
			t.Errorf("-exp %q printed %q on stdout", exp, out)
		}
		msg := stderr.String()
		if !strings.Contains(msg, strings.Join(experimentNames(), ", ")) {
			t.Errorf("-exp %q: message %q does not list the experiments", exp, msg)
		}
	}
	names := experimentNames()
	for _, want := range []string{"E1", "E5", "B13B", "S1B", "F1"} {
		if !slices.Contains(names, want) {
			t.Errorf("experiment %s missing from %v", want, names)
		}
	}
	for _, gone := range []string{"B10", "B11"} {
		if slices.Contains(names, gone) {
			t.Errorf("experiment %s listed in %v", gone, names)
		}
	}
	if !slices.IsSorted(names) {
		t.Errorf("names not sorted: %v", names)
	}
}
