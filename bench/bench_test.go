package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Every workload, at a short window, must report every named metric with
// its unit, fail nothing and pass its output checks — untraced and traced.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Long enough that, under the race detector too, most of the five
			// slices see mixed-rw's slowest read complete.
			window := 500 * time.Millisecond
			res, err := runEndToEnd(w, 7, warmup(window), window, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			if n := res.detail["latency_samples"].(int); n == 0 {
				t.Errorf("no latency samples")
			}
			for _, s := range endToEnd {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", s.Name, res.Metrics[s.Name].Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = runTraced(w, 7, window, t.TempDir(), spans)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if res.Metrics["client.rtt_us"].Value <= 0 {
				t.Errorf("client.rtt_us = %v", res.Metrics["client.rtt_us"].Value)
			}
			var got []span
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for i, s := range got {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
				if s.Parent == -1 {
					roots++
				} else if got[s.Parent].OpID != s.OpID {
					t.Fatalf("span %d (op %d) has a parent of op %d", i, s.OpID, got[s.Parent].OpID)
				}
			}
			if roots != res.detail["traced_ops"].(int) {
				t.Errorf("%d root spans for %d traced operations", roots, res.detail["traced_ops"])
			}
		})
	}
}

func checkResult(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if res.err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d err=%v", res.Correct, res.Attempted, res.Failed, res.err)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("metric %s missing", s.Name)
		} else if m.Unit != s.Unit {
			t.Errorf("metric %s has unit %q, want %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// A wrong answer must fail the run: the shadow check notices a balance the
// benchmark did not write.
func TestOutputCheckCatchesForeignWrite(t *testing.T) {
	w := findWorkload("oltp-small")
	in, err := build(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	sh := newShadow(w.accounts)
	rng := newGen(w, 1, 0).rng
	if err := sh.verify(in.target(0), rng); err != nil {
		t.Fatalf("fresh database disagrees with fresh shadow: %v", err)
	}
	if _, err := in.db.Exec("update acct set bal = bal + 1 where id = 3"); err != nil {
		t.Fatal(err)
	}
	if err := sh.verify(in.target(0), rng); err == nil {
		t.Fatal("verify accepted a database the shadow does not describe")
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", doc.PerLayer, perLayer)
	}
	hasSetup := false
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, // exactly 10 beyond
		{99, 999, false}, // 9.99 beyond
		{95, 200, true},
		{95, 199, false},
		{50, 20, true},
		{50, 19, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i + 1)
	}
	if p := percentile(lats, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond)", p)
	}
	if p := percentile(lats, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %d", p)
	}
	s := summarize([]sample{{lat: 3}, {lat: 1}, {lat: 2}}, 99)
	if s.n != 3 || s.p50 != 2 || s.tail != 3 || s.supported {
		t.Errorf("summarize of three samples = %+v", s)
	}
	many := make([]sample, 1000)
	for i := range many {
		many[i].lat = lats[i]
	}
	if s := summarize(many, 99); s.tail != 990 || !s.supported {
		t.Errorf("summarize of 1000 samples = %+v", s)
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	if s := spread(vs); s != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", s)
	}
	// statistics.quantiles([10,20,30,40,50,60,70,80,90,1000], n=4) == [27.5, 55.0, 82.5]
	if q1, q3 := quartiles([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}); q1 != 27.5 || q3 != 82.5 {
		t.Errorf("quartiles with an outlier = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles([1 2]) = %v, %v", q1, q3)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

func TestSliceRatesMedian(t *testing.T) {
	window := 5 * time.Second // one-second slices
	var samples []sample
	for slice, n := range []int{10, 30, 20, 1000, 40} { // one slice ran wild
		for i := 0; i < n; i++ {
			samples = append(samples, sample{done: time.Duration(slice)*time.Second + time.Duration(i)*time.Microsecond})
		}
	}
	samples = append(samples, sample{done: window}) // completed on the closing instant: last slice
	rates := sliceRates(samples, window)
	if want := []float64{10, 30, 20, 1000, 41}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("rates = %v, want %v", rates, want)
	}
	if m := median(rates); m != 30 {
		t.Errorf("median slice rate = %v, want 30", m)
	}
}

func TestPacerAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, interval: 25 * time.Millisecond}
	if d := p.due(4).Sub(start); d != 100*time.Millisecond {
		t.Fatalf("due(4) = %v", d)
	}
	// On time: sent at its due instant, took 10 ms.
	lat, late := p.account(2, p.due(2), p.due(2).Add(10*time.Millisecond))
	if lat != 10*time.Millisecond || late != 0 {
		t.Errorf("on time: lat %v late %v", lat, late)
	}
	// A 60 ms stall before operation 2: operation 3 is sent 35 ms late and is
	// charged the wait as well as its own 10 ms.
	sent := p.due(2).Add(60 * time.Millisecond)
	lat, late = p.account(3, sent, sent.Add(10*time.Millisecond))
	if lat != 45*time.Millisecond || late != 35*time.Millisecond {
		t.Errorf("after a stall: lat %v late %v, want 45ms and 35ms", lat, late)
	}
	// The generator woke early (cannot, but must not go negative).
	_, late = p.account(1, p.due(1).Add(-time.Millisecond), p.due(1))
	if late != 0 {
		t.Errorf("early send reported lateness %v", late)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		s              metricSpec
		a, b, spA, spB float64
		want           string
	}{
		{lower, 100, 109, 0.01, 0.01, verdictOK},
		{lower, 100, 111, 0.01, 0.01, verdictRegressed},
		{lower, 100, 50, 0.01, 0.01, verdictOK},
		{higher, 100, 91, 0.01, 0.01, verdictOK},
		{higher, 100, 89, 0.01, 0.01, verdictRegressed},
		{higher, 100, 200, 0.01, 0.01, verdictOK},
		{lower, 100, 105, 0.30, 0.01, verdictUnresolved},
		{lower, 100, 105, 0.01, 0.30, verdictUnresolved},
		{lower, 100, 130, 0.30, 0.30, verdictRegressed},
	} {
		if _, got := judge(c.s, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("judge(%s, %v→%v, spreads %v %v) = %s, want %s", c.s.Name, c.a, c.b, c.spA, c.spB, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(scale float64, failed int) *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{}
			for run := 0; run < 3; run++ {
				rr := runReport{}
				rr.Attempted, rr.Failed = 1000, failed
				rr.Metrics = map[string]metric{}
				for _, s := range endToEnd {
					v := 100 + float64(run)
					if s.Better == "lower" {
						v *= scale
					} else {
						v /= scale
					}
					rr.Metrics[s.Name] = metric{v, s.Unit}
				}
				wr.Runs = append(wr.Runs, rr)
			}
			r.Workloads[w.name] = wr
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1, 0))
	var out bytes.Buffer
	if regressed, err := compareReports(&out, base, write("same.json", mk(1.02, 0))); err != nil || regressed {
		t.Fatalf("2%% worse: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), " ok"); n != len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d ok rows, want %d:\n%s", n, len(workloads)*(len(endToEnd)+1), out.String())
	}
	if regressed, err := compareReports(&out, base, write("slow.json", mk(1.5, 0))); err != nil || !regressed {
		t.Fatalf("50%% worse: regressed=%v err=%v", regressed, err)
	}
	if regressed, err := compareReports(&out, base, write("fail.json", mk(1, 1))); err != nil || !regressed {
		t.Fatalf("a new failure: regressed=%v err=%v", regressed, err)
	}
	if code := run([]string{"-compare", base, filepath.Join(dir, "slow.json")}); code != 1 {
		t.Errorf("bench -compare exit code %d on a regression, want 1", code)
	}
}
