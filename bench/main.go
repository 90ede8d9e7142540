// Command bench is the repository's benchmark: six named workloads, each
// built, driven, checked and reported by one command. README.md has the
// vocabulary; ../BENCHMARK.json names the workloads, metrics and bounds.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run of one workload
//	bench [-runs R] [-trace 1] [-out report.json]      every workload, each run in a child process
//	bench -compare A.json B.json                       judge report B against report A
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// metricSpec is one metric of BENCHMARK.json. bound is the share of the
// baseline's median by which an end-to-end metric may get worse before that
// is a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"write_p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricSpec{
	{Name: "client.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_us", Unit: "us", Better: "lower"},
	{Name: "server.errors_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.codec_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "engine.block_us", Unit: "us", Better: "lower"},
	{Name: "engine.rules_us", Unit: "us", Better: "lower"},
	{Name: "engine.commit_us", Unit: "us", Better: "lower"},
	{Name: "rules.considerations_per_op", Unit: "count", Better: "lower"},
	{Name: "rules.firings_per_op", Unit: "count", Better: "lower"},
	{Name: "rules.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "wal.txns_per_sync", Unit: "ratio", Better: "higher"},
	{Name: "exec.point_us", Unit: "us", Better: "lower"},
	{Name: "exec.scan_us", Unit: "us", Better: "lower"},
	{Name: "exec.join_us", Unit: "us", Better: "lower"},
	{Name: "exec.heap_scans_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.index_lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.planned_per_op", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.unaccounted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics in place of end-to-end ones")
	runs := fs.Int("runs", 1, "with all workloads: untraced runs of each, on consecutive seeds")
	out := fs.String("out", "", "file for the report (all workloads) or the spans (one traced workload)")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		var regressed bool
		if regressed, err = compareReports(os.Stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	case *name == "":
		err = runAll(*seed, *seconds, *trace == 1, *runs, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// warmup is the share of the window run first and not measured.
func warmup(window time.Duration) time.Duration { return window / 5 }

// header is the line a single run prints before its result.
type header struct {
	Workload string         `json:"workload"`
	Env      environment    `json:"env"`
	Detail   map[string]any `json:"detail"`
}

// runOne runs one workload in this process and prints a header line, then —
// as the last line — the result object the acceptance driver reads.
func runOne(name string, seed int64, seconds float64, traced bool, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// The load is generated in this process beside the server: more
	// connections than processors would measure the scheduler.
	if w.conns() > runtime.NumCPU() {
		return fmt.Errorf("%s drives %d connections but this machine has %d processors; refusing to run", w.name, w.conns(), runtime.NumCPU())
	}
	window := time.Duration(seconds * float64(time.Second))
	tmp, err := os.MkdirTemp("", "soprbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	env := fingerprint(tmp, seed, warmup(window).Seconds(), window.Seconds())

	var res *result
	if traced {
		res, err = runTraced(w, seed, window, tmp, out)
	} else {
		res, err = runEndToEnd(w, seed, warmup(window), window, tmp)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(header{w.name, env, res.detail}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if res.err != nil {
		// A failed operation or output check fails the command.
		return fmt.Errorf("%s: %d of %d operations failed, first: %w", w.name, res.Failed, res.Attempted, res.err)
	}
	return nil
}

// A report is what running every workload leaves behind, and what -compare
// reads.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Runs   []runReport `json:"runs"`
	Traced *runReport  `json:"traced,omitempty"`
}

type runReport struct {
	result
	Seed   int64          `json:"seed"`
	Detail map[string]any `json:"detail"`
}

// runAll runs every workload, each run in its own child process (fresh heap,
// its own peak RSS), and writes the report to out or standard output.
func runAll(seed int64, seconds float64, traced bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Workloads: map[string]*workloadReport{}}
	child := func(w *workload, seed int64, trace int) (*runReport, error) {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if len(lines) < 2 {
			return nil, fmt.Errorf("%s: child printed %d lines", w.name, len(lines))
		}
		var h header
		r := &runReport{Seed: seed}
		if err := json.Unmarshal(lines[len(lines)-2], &h); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
			return nil, err
		}
		r.Detail, rep.Env = h.Detail, h.Env
		return r, nil
	}
	for _, w := range workloads {
		wr := &workloadReport{}
		rep.Workloads[w.name] = wr
		for i := 0; i < runs; i++ {
			r, err := child(w, seed+int64(i), 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, *r)
			fmt.Fprintf(os.Stderr, "%-14s seed %d  %s\n", w.name, r.Seed, oneLine(r.Metrics, endToEnd))
		}
		if traced {
			if wr.Traced, err = child(w, seed, 1); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%-14s traced  %s\n", w.name, oneLine(wr.Traced.Metrics, perLayer))
		}
	}
	rep.Env.Seed = seed
	if out != "" {
		return writeJSON(out, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

func oneLine(ms map[string]metric, specs []metricSpec) string {
	var b bytes.Buffer
	for _, s := range specs {
		if m, ok := ms[s.Name]; ok {
			fmt.Fprintf(&b, "%s=%.4g %s; ", s.Name, m.Value, m.Unit)
		}
	}
	return b.String()
}
