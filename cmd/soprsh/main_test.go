package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/server"
)

// capture redirects os.Stdout around fn and returns what was printed.
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

func shellDB(t *testing.T) *sopr.DB {
	t.Helper()
	db := sopr.Open()
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create rule r when inserted into t then delete from t where a < 0 end`)
	return db
}

func TestRunStatement(t *testing.T) {
	db := shellDB(t)
	out := capture(t, func() { run(db, `insert into t values (1), (-2);`) })
	if !strings.Contains(out, "rule r fired") {
		t.Errorf("firing not reported: %q", out)
	}
	out = capture(t, func() { run(db, `select * from t;`) })
	if !strings.Contains(out, "1 row(s)") {
		t.Errorf("row count missing: %q", out)
	}
}

func TestRunRollbackReported(t *testing.T) {
	db := shellDB(t)
	db.MustExec(`create rule guard when inserted into t
		if exists (select * from inserted t where a = 13) then rollback`)
	out := capture(t, func() { run(db, `insert into t values (13);`) })
	if !strings.Contains(out, "ROLLED BACK") || !strings.Contains(out, "guard") {
		t.Errorf("rollback not reported: %q", out)
	}
}

func TestRunError(t *testing.T) {
	db := shellDB(t)
	// Errors go to stderr; stdout stays clean and the shell keeps going.
	out := capture(t, func() { run(db, `select * from nosuch;`) })
	if strings.Contains(out, "nosuch") {
		t.Errorf("error leaked to stdout: %q", out)
	}
}

// captureStderr redirects os.Stderr around fn and returns what was printed.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		b.ReadFrom(r)
		done <- b.String()
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}

// TestErrorLineReporting checks that a failing statement in a
// multi-statement script is reported with its line in the overall input,
// not just the error text relative to the one statement.
func TestErrorLineReporting(t *testing.T) {
	db := shellDB(t)
	// Parse error: the statement buffer began at input line 10, the bad
	// token is on the buffer's second line => input line 11.
	out := captureStderr(t, func() {
		runAt(db, "insert into t values (1);\nnot sql at all;", 10)
	})
	if !strings.Contains(out, "line 11") {
		t.Errorf("parse error not mapped to input line 11: %q", out)
	}
	// Execution error: no position of its own, attributed to the
	// statement's starting line.
	out = captureStderr(t, func() {
		runAt(db, "select * from nosuch;", 7)
	})
	if !strings.Contains(out, "line 7") {
		t.Errorf("exec error not attributed to line 7: %q", out)
	}
	// run() keeps the old relative numbering.
	out = captureStderr(t, func() {
		run(db, "insert into t values (1);\nnot sql at all;")
	})
	if !strings.Contains(out, "line 2") {
		t.Errorf("run: %q", out)
	}
}

// startTestServer serves db for the -connect path tests.
func startTestServer(t *testing.T, db *sopr.DB) string {
	t.Helper()
	srv := server.New(sopr.Synchronized(db), server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestConnectModeRun drives run() and the remote meta-commands against a
// live server, mirroring what `soprsh -connect addr` does.
func TestConnectModeRun(t *testing.T) {
	addr := startTestServer(t, func() *sopr.DB {
		db := sopr.Open()
		db.MustExec(`create table t (a int)`)
		db.MustExec(`create rule r when inserted into t then delete from t where a < 0 end`)
		return db
	}())
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out := capture(t, func() { run(c, `insert into t values (1), (-2);`) })
	if !strings.Contains(out, "rule r fired") {
		t.Errorf("remote firing not reported: %q", out)
	}
	out = capture(t, func() { run(c, `select * from t;`) })
	if !strings.Contains(out, "1 row(s)") {
		t.Errorf("remote rows missing: %q", out)
	}
	// Remote parse errors map to input lines too.
	errOut := captureStderr(t, func() {
		runAt(c, "insert into t values (2);\nnot sql at all;", 20)
	})
	if !strings.Contains(errOut, "line 21") {
		t.Errorf("remote parse error not mapped to line 21: %q", errOut)
	}

	out = capture(t, func() { metaRemote(c, ".ping") })
	if !strings.Contains(out, "pong") {
		t.Errorf(".ping: %q", out)
	}
	out = capture(t, func() { metaRemote(c, ".stats") })
	if !strings.Contains(out, "committed=") || !strings.Contains(out, "server:") {
		t.Errorf(".stats: %q", out)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if visits := fmt.Sprintf(" rule_visits=%d ", st.Engine.RuleVisits); st.Engine.RuleVisits == 0 || !strings.Contains(out, visits) {
		t.Errorf(".stats: %q, want %q", out, visits)
	}
	out = capture(t, func() { metaRemote(c, ".dump") })
	if !strings.Contains(out, "CREATE TABLE t") {
		t.Errorf(".dump: %q", out)
	}
	out = capture(t, func() { metaRemote(c, ".help") })
	if !strings.Contains(out, "remote session") {
		t.Errorf(".help: %q", out)
	}
	captureStderr(t, func() {
		if !metaRemote(c, ".tables") {
			t.Error(".tables terminated the remote shell")
		}
	})
	if metaRemote(c, ".quit") {
		t.Error(".quit should terminate")
	}
}

func TestMetaCommands(t *testing.T) {
	db := shellDB(t)
	db.MustExec(`insert into t values (1), (-2)`)
	visits := db.Stats().RuleVisits
	if visits == 0 {
		t.Fatal("the firing visited no rule")
	}
	cases := []struct {
		cmd  string
		want string
	}{
		{".tables", "t"},
		{".rules", "r"},
		{".analyze", "no warnings"},
		{".stats", fmt.Sprintf(" rule_visits=%d ", visits)},
		{".help", ".dump"},
		{".nosuchcmd", ""}, // error on stderr, nothing on stdout
	}
	for _, c := range cases {
		out := capture(t, func() {
			if !meta(db, c.cmd) {
				t.Errorf("%s terminated the shell", c.cmd)
			}
		})
		if c.want != "" && !strings.Contains(out, c.want) {
			t.Errorf("%s output %q missing %q", c.cmd, out, c.want)
		}
	}
	if meta(db, ".quit") {
		t.Error(".quit should terminate")
	}
	if meta(db, ".exit") {
		t.Error(".exit should terminate")
	}
}

func TestMetaTrace(t *testing.T) {
	db := shellDB(t)
	out := capture(t, func() {
		meta(db, ".trace on")
		run(db, `insert into t values (-5);`)
		meta(db, ".trace off")
	})
	for _, frag := range []string{"trace on", "external transition", "fire r", "commit", "trace off"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace output missing %q:\n%s", frag, out)
		}
	}
}

func TestMetaDumpLoad(t *testing.T) {
	db := shellDB(t)
	db.MustExec(`insert into t values (7)`)
	dir := t.TempDir()
	file := dir + "/dump.sql"
	out := capture(t, func() { meta(db, ".dump "+file) })
	if !strings.Contains(out, "dumped to") {
		t.Fatalf("dump: %q", out)
	}
	db2 := sopr.Open()
	out = capture(t, func() { meta(db2, ".load "+file) })
	if !strings.Contains(out, "loaded") {
		t.Fatalf("load: %q", out)
	}
	if db2.MustQuery(`select a from t`).Data[0][0] != int64(7) {
		t.Error("loaded data wrong")
	}
	// Dump to stdout.
	out = capture(t, func() { meta(db, ".dump") })
	if !strings.Contains(out, "CREATE TABLE t") {
		t.Errorf("stdout dump: %q", out)
	}
	// Load usage / missing file errors stay off stdout.
	capture(t, func() { meta(db, ".load") })
	capture(t, func() { meta(db, ".load /nonexistent/nope.sql") })
}
