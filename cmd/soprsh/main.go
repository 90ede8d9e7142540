// Command soprsh is an interactive shell for the set-oriented production
// rules engine: type SQL and rule-language statements terminated by ';',
// and meta-commands starting with '.'.
//
//	$ go run ./cmd/soprsh
//	sopr> create table t (a int);
//	sopr> create rule r when inserted into t then delete from t where a < 0 end;
//	sopr> insert into t values (1), (-2);
//	rule r fired [I:0 D:1 U:0 S:0]
//	sopr> select * from t;
//	a
//	-
//	1
//
// With -connect ADDR the same REPL runs against a remote soprd server
// instead of an in-process engine.
//
// Meta-commands: .tables  .rules  .analyze  .trace on|off  .help  .quit
// (.stats, .dump and .ping also work remotely).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sopr"
	"sopr/client"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/wal"
)

// execer is the part of the engine the statement loop needs; *sopr.DB
// (local mode) and remoteSession (-connect mode) both provide it.
type execer interface {
	Exec(src string) (*sopr.Result, error)
}

// remoteSession adapts a client.Client to the statement loop. A lone
// SELECT or EXPLAIN is sent as a query request — the read path the server answers
// with no locking and, on a replica, the only path there is (replicas
// refuse exec with a read_only error). A multi-statement buffer of
// data-manipulation statements (`insert ...; delete ...;` on one input
// line) ships as ONE batch frame, which the server runs as one operation
// block with one commit fsync. Everything else — definitions, or anything
// this client cannot parse — goes through the script exec path, letting
// the server report its own (line-numbered) errors.
type remoteSession struct{ c *client.Client }

func (s remoteSession) Exec(src string) (*sopr.Result, error) {
	stmts, err := sqlparse.ParseStatements(src)
	if err != nil || len(stmts) == 0 {
		return s.c.Exec(src)
	}
	if len(stmts) == 1 {
		switch stmts[0].(type) {
		case *sqlast.Select, *sqlast.Explain:
			rows, err := s.c.Query(src)
			if err != nil {
				return nil, err
			}
			return &sopr.Result{Results: []*sopr.Rows{rows}}, nil
		}
		return s.c.Exec(src)
	}
	batch := make([]string, len(stmts))
	for i, st := range stmts {
		switch st := st.(type) {
		case *sqlast.Insert:
			batch[i] = st.String()
		case *sqlast.Delete:
			batch[i] = st.String()
		case *sqlast.Update:
			batch[i] = st.String()
		case *sqlast.Select:
			batch[i] = st.String()
		case *sqlast.ProcessRules:
			batch[i] = st.String()
		default:
			// A definition in the buffer: not batchable, script path.
			return s.c.Exec(src)
		}
	}
	return s.c.ExecBatch(batch)
}

func main() {
	selectTriggers := flag.Bool("select-triggers", false, "enable Section 5.1 select-triggered rules")
	maxTransitions := flag.Int("max-transitions", 0, "runaway guard: max rule transitions per transaction (0 = default)")
	connect := flag.String("connect", "", "address of a soprd server; run the REPL against it instead of a local engine")
	flag.Parse()

	var db *sopr.DB
	var session execer
	var cl *client.Client
	if *connect != "" {
		var err error
		cl, err = client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer cl.Close()
		if err := cl.Ping(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		session = remoteSession{cl}
	} else {
		var opts []sopr.Option
		if *selectTriggers {
			opts = append(opts, sopr.WithSelectTriggers())
		}
		if *maxTransitions > 0 {
			opts = append(opts, sopr.WithMaxRuleTransitions(*maxTransitions))
		}
		db = sopr.Open(opts...)
		session = db
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1024*1024), 1024*1024)
	interactive := isInteractive()
	var buf strings.Builder
	lineNo := 0    // lines read from the input so far
	startLine := 1 // input line where the buffered statement began
	prompt := func() {
		if interactive {
			if buf.Len() == 0 {
				fmt.Print("sopr> ")
			} else {
				fmt.Print("  ... ")
			}
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		lineNo++
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			var more bool
			if cl != nil {
				more = metaRemote(cl, trimmed)
			} else {
				more = meta(db, trimmed)
			}
			if !more {
				return
			}
			prompt()
			continue
		}
		if buf.Len() == 0 {
			startLine = lineNo
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			runAt(session, buf.String(), startLine)
			buf.Reset()
		}
		prompt()
	}
	if err := in.Err(); err != nil {
		// e.g. a single input line over the 1 MiB scanner buffer; without
		// this the shell would end silently mid-script.
		fmt.Fprintf(os.Stderr, "error: reading input after line %d: %v\n", lineNo, err)
		os.Exit(1)
	}
	if buf.Len() > 0 {
		runAt(session, buf.String(), startLine)
	}
}

func isInteractive() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// run executes one statement buffer counting lines from 1 (tests and
// single-statement callers).
func run(db execer, src string) { runAt(db, src, 1) }

// runAt executes one statement buffer that began at input line startLine,
// so errors point at the failing line of the overall input rather than
// echoing only the error text.
func runAt(db execer, src string, startLine int) {
	res, err := db.Exec(src)
	if err != nil {
		reportError(err, startLine)
		return
	}
	for _, f := range res.Firings {
		fmt.Printf("rule %s fired %s\n", f.Rule, f.Effect)
	}
	if res.RolledBack {
		fmt.Printf("transaction ROLLED BACK by rule %q\n", res.RollbackRule)
	}
	for _, q := range res.Results {
		fmt.Println(q)
		fmt.Printf("(%d row(s))\n", len(q.Data))
	}
}

// reportError prints err with the failing input line. Parse errors know
// their line within the submitted buffer, which is offset to an absolute
// input line; execution errors are attributed to the statement's start.
func reportError(err error, startLine int) {
	var pe *sopr.ParseError
	var re *client.RemoteError
	switch {
	case errors.As(err, &pe):
		fmt.Fprintf(os.Stderr, "error: syntax error at line %d, column %d: %s\n",
			startLine-1+pe.Line, pe.Col, pe.Msg)
	case errors.As(err, &re) && re.Code == client.CodeParse && re.Line > 0:
		fmt.Fprintf(os.Stderr, "error at line %d: remote: %s\n", startLine-1+re.Line, re.Message)
	default:
		fmt.Fprintf(os.Stderr, "error in statement at line %d: %v\n", startLine, err)
	}
}

// meta handles dot-commands against the local engine; it returns false to
// quit.
func meta(db *sopr.DB, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".tables":
		for _, t := range db.Tables() {
			fmt.Println(t)
		}
	case ".rules":
		for _, r := range db.Rules() {
			fmt.Println(r)
		}
	case ".analyze":
		rep := db.AnalyzeRules()
		warnings := rep.Warnings()
		if len(warnings) == 0 {
			fmt.Println("no warnings")
		}
		for _, w := range warnings {
			fmt.Println("warning:", w)
		}
		for _, e := range rep.Edges {
			fmt.Printf("may trigger: %s -> %s\n", e[0], e[1])
		}
	case ".stats":
		s := db.Stats()
		printEngineStats(s)
	case ".dump":
		if len(fields) == 2 {
			// Crash-safe: the script lands in a temp file that is fsynced
			// and renamed over the target, so a crash mid-dump can never
			// leave a truncated file where a good dump (or nothing) was.
			err := wal.AtomicWriteFile(wal.OS{}, fields[1], func(w io.Writer) error {
				return db.Dump(w)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println("dumped to", fields[1])
			}
			return true
		}
		if err := db.Dump(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	case ".load":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: .load FILE")
			return true
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		defer f.Close()
		if err := db.Load(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Println("loaded", fields[1])
		}
	case ".trace":
		if len(fields) == 2 && fields[1] == "on" {
			db.TraceTo(os.Stdout)
			fmt.Println("trace on")
		} else {
			db.TraceTo(nil)
			fmt.Println("trace off")
		}
	case ".help":
		fmt.Println(`statements end with ';' and may span lines
meta-commands:
  .tables          list tables
  .rules           list rules
  .analyze         static rule analysis (Section 6)
  .stats           cumulative engine counters
  .trace on|off    show the Figure 1 algorithm's steps
  .dump [FILE]     write a script recreating the database
  .load FILE       execute a dump script
  .quit            exit`)
	default:
		fmt.Fprintf(os.Stderr, "unknown meta-command %s (try .help)\n", fields[0])
	}
	return true
}

// metaRemote handles dot-commands in -connect mode; it returns false to
// quit.
func metaRemote(c *client.Client, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".ping":
		if err := c.Ping(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Println("pong")
		}
	case ".stats":
		st, err := c.Stats()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		printEngineStats(st.Engine)
		s := st.Server
		fmt.Printf("server: connections=%d active=%d execs=%d queries=%d errors=%d in_flight=%d\n",
			s.Accepted, s.Active, s.Execs, s.Queries, s.Errors, s.InFlight)
		if r := st.Repl; r != nil {
			fmt.Printf("repl: role=%s epoch=%d lsn=%d durable=%t", r.Role, r.Epoch, r.LSN, r.Durable)
			if r.Role == "replica" {
				fmt.Printf(" leader=%s connected=%t lag=%d resets=%d discarded=%d",
					r.Leader, r.Connected, r.Lag, r.Resets, r.DiscardedRecords)
			} else {
				fmt.Printf(" followers=%d min_follower_lsn=%d", r.Followers, r.MinFollowerLSN)
				if r.SyncFollowers > 0 {
					fmt.Printf(" sync_followers=%d sync_timeouts=%d", r.SyncFollowers, r.SyncTimeouts)
				}
			}
			if r.Fenced {
				fmt.Print(" FENCED")
			}
			fmt.Println()
		}
	case ".dump":
		script, err := c.Dump()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		if len(fields) == 2 {
			err := wal.AtomicWriteFile(wal.OS{}, fields[1], func(w io.Writer) error {
				_, werr := io.WriteString(w, script)
				return werr
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println("dumped to", fields[1])
			}
			return true
		}
		fmt.Print(script)
	case ".help":
		fmt.Println(`statements end with ';' and may span lines
meta-commands (remote session):
  .stats           engine + server counters
  .dump [FILE]     write a script recreating the remote database
  .ping            check the server is alive
  .quit            exit`)
	case ".tables", ".rules", ".analyze", ".trace", ".load":
		fmt.Fprintf(os.Stderr, "%s is not available over -connect (try .dump or .help)\n", fields[0])
	default:
		fmt.Fprintf(os.Stderr, "unknown meta-command %s (try .help)\n", fields[0])
	}
	return true
}

func printEngineStats(s sopr.Stats) {
	fmt.Printf("committed=%d rolled_back=%d external_transitions=%d rule_considerations=%d rule_firings=%d rule_visits=%d index_lookups=%d heap_scans=%d\n",
		s.Committed, s.RolledBack, s.ExternalTransitions, s.RuleConsiderations, s.RuleFirings, s.RuleVisits, s.IndexLookups, s.HeapScans)
	fmt.Printf("wal: appends=%d bytes=%d recovered_records=%d checkpoints=%d\n",
		s.WALAppends, s.WALBytes, s.RecoveredRecords, s.Checkpoints)
	if s.GroupCommits > 0 {
		fmt.Printf("wal: group_commits=%d grouped_txns=%d txns_per_sync=%.2f\n",
			s.GroupCommits, s.GroupedTxns, s.TxnsPerSync())
	}
	if s.PlannedQueries > 0 || s.PlanProbeFallbacks > 0 {
		fmt.Printf("planner: planned_queries=%d probe_fallbacks=%d\n",
			s.PlannedQueries, s.PlanProbeFallbacks)
	}
}
