package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"sopr"
)

const (
	slices = 5 // the measured window is cut into this many equal slices

	// setup_s is the median of repeated set-ups: at least minSetups, then
	// more until setupBudget is spent, because a millisecond set-up timed
	// five times is mostly noise.
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// A sample is one acknowledged operation inside the measured window.
type sample struct {
	done time.Duration // completion time, from the window's start
	lat  time.Duration // client-observed latency (from the due time when paced)
}

// connLog is what one connection's loop leaves behind.
type connLog struct {
	samples   []sample
	late      []time.Duration // paced only: how long after its due time each send started
	attempted int
	failed    int
	firstErr  error
	shadow    *shadow
}

// pacer is an open-loop schedule: operation k is due at start + k·interval,
// whatever happened to the operations before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.interval) }

// account turns one paced operation's send and completion instants into the
// latency charged to it — measured from when it was due, so a stall is
// charged to every operation it delayed — and the generator's lateness.
func (p pacer) account(k int, sent, done time.Time) (lat, late time.Duration) {
	due := p.due(k)
	if late = sent.Sub(due); late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// drive runs one connection's loop from now until end, logging operations
// that complete at or after open (the end of warm-up). With hz > 0 it sends
// on an open-loop schedule instead of back to back.
func drive(w *workload, t target, g *gen, writer bool, hz int, open, end time.Time) *connLog {
	log := &connLog{}
	if !w.cascade() {
		log.shadow = newShadow(w.accounts)
	}
	var p pacer
	if hz > 0 {
		p = pacer{start: time.Now(), interval: time.Second / time.Duration(hz)}
	}
	for k := 0; ; k++ {
		if hz > 0 {
			if d := time.Until(p.due(k)); d > 0 {
				time.Sleep(d)
			}
		}
		sent := time.Now()
		if !sent.Before(end) {
			return log
		}
		o := g.next(writer)
		_, err := o.do(t, w.accounts)
		done := time.Now()
		if err == nil && o.kind == opWrite {
			log.shadow.apply(&o)
		}
		if err != nil {
			// A failure counts whenever it happens, warm-up included.
			log.attempted++
			log.failed++
			if log.firstErr == nil {
				log.firstErr = err
			}
			continue
		}
		if done.Before(open) {
			continue
		}
		log.attempted++
		lat := done.Sub(sent)
		if hz > 0 {
			var late time.Duration
			lat, late = p.account(k, sent, done)
			log.late = append(log.late, late)
		}
		log.samples = append(log.samples, sample{done: done.Sub(open), lat: lat})
	}
}

// latencySummary is the median and one tail percentile of a set of
// latencies. The percentile is fixed by the metric's name, so a value always
// means the same thing; supported says whether this run had the minBeyond
// samples beyond it that make it a measurement (the workloads are sized so
// that at the benchmark's window it does).
type latencySummary struct {
	n         int
	p50, tail time.Duration
	supported bool
}

func summarize(samples []sample, tailP float64) latencySummary {
	lats := make([]time.Duration, len(samples))
	for i, s := range samples {
		lats[i] = s.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latencySummary{
		n:         len(lats),
		p50:       percentile(lats, 50),
		tail:      percentile(lats, tailP),
		supported: supported(tailP, len(lats)),
	}
}

// sliceRates cuts the window into equal slices and returns operations
// completed per second in each.
func sliceRates(samples []sample, window time.Duration) []float64 {
	counts := make([]float64, slices)
	per := window / slices
	for _, s := range samples {
		i := int(s.done / per)
		if i >= slices {
			i = slices - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= per.Seconds()
	}
	return counts
}

// A metric is one named, unit-carrying number of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The driver's contract
// fixes the first four keys; detail is printed on its own line before them.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    map[string]any
	err       error // first failed operation or output check
}

// fail counts one failed operation or output check.
func (r *result) fail(err error) {
	r.Failed++
	if r.err == nil {
		r.err = err
	}
}

// runEndToEnd sets w up repeatedly, drives the last instance through a
// warm-up and a measured window with tracing off, checks the outputs and
// returns the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, warm, window time.Duration, tmp string) (*result, error) {
	var in *instance
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if in, d, err = timedBuild(w, tmp); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()

	before := in.db.Stats()
	open := time.Now().Add(warm)
	end := open.Add(window)
	logs := make([]*connLog, w.conns())
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paced := i >= w.clients
			hz := 0
			if paced {
				hz = w.pacedHz
			}
			logs[i] = drive(w, in.target(i), newGen(w, seed, i), paced || !w.readers, hz, open, end)
		}(i)
	}
	wg.Wait()
	after := in.db.Stats()

	res := &result{Metrics: map[string]metric{}, detail: map[string]any{}}
	var closed, paced []sample
	var late []time.Duration
	var sh *shadow
	for i, l := range logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
		if l.firstErr != nil && res.err == nil {
			res.err = l.firstErr
		}
		if i < w.clients {
			closed = append(closed, l.samples...)
		} else {
			paced = append(paced, l.samples...)
			late = l.late
		}
		if sh == nil {
			sh = l.shadow
		} else if l.shadow != nil {
			sh.merge(l.shadow)
		}
	}
	if err := checkOutputs(w, in, sh, before, after, rand.New(rand.NewSource(seed))); err != nil {
		res.fail(err)
	}
	if w.durable {
		if err := checkReopen(in); err != nil {
			res.fail(err)
		}
		in = nil // checkReopen closed it
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window", w.name)
	}
	res.Correct = res.Failed == 0

	rates := sliceRates(closed, window)
	// The bounded tail is the 95th percentile: on this class of machine the
	// 99th moves by a quarter between runs of one commit (README.md), so it
	// is reported beside the metrics, unbounded.
	lat := summarize(closed, 95)
	p99 := summarize(closed, 99)
	res.Metrics["ops_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["p50_us"] = metric{micros(lat.p50), "us"}
	res.Metrics["p95_us"] = metric{micros(lat.tail), "us"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.detail["ops_per_s_slice_spread"] = spread(rates)
	res.detail["latency_samples"] = lat.n
	res.detail["p99_us"] = micros(p99.tail)
	res.detail["p99_us_has_10_beyond"] = p99.supported
	res.detail["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.detail["setups_timed"] = len(setups)
	// Every operation of the other workloads is a write, so there the write
	// tail is the operation tail; mixed-rw's is its paced writer's, timed
	// from each write's due time.
	wlat := lat
	if w.pacedHz > 0 {
		wlat = summarize(paced, 95)
		res.detail["write_generator_late_p50_us"] = micros(medianDuration(late))
		res.detail["write_generator_late_max_us"] = micros(maxDuration(late))
	}
	res.Metrics["write_p95_us"] = metric{micros(wlat.tail), "us"}
	res.detail["write_samples"] = wlat.n
	res.detail["write_p95_us_has_10_beyond"] = wlat.supported
	return res, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// checkOutputs verifies, after the window, what the run must have left
// behind: the acct family's tables equal the shadow and roll fired once per
// committed block; rules-cascade left emp and dept empty with exactly
// cascadeFirings firings per operation.
func checkOutputs(w *workload, in *instance, sh *shadow, before, after sopr.Stats, rng *rand.Rand) error {
	t := in.target(0)
	firings := after.RuleFirings - before.RuleFirings
	committed := after.Committed - before.Committed
	if w.cascade() {
		for _, tbl := range []string{"emp", "dept"} {
			rows, err := t.Query("select count(*) from " + tbl)
			if err != nil {
				return err
			}
			if rows.Data[0][0] != int64(0) {
				return fmt.Errorf("check: %s holds %v rows after the cascade, want 0", tbl, rows.Data[0][0])
			}
		}
		// Two transactions per operation: the rebuild (no firing) and the delete.
		if committed%2 != 0 || firings != committed/2*cascadeFirings {
			return fmt.Errorf("check: %d firings over %d transactions, want %d per delete", firings, committed, cascadeFirings)
		}
		return nil
	}
	if firings != sh.blocks || committed != sh.blocks {
		return fmt.Errorf("check: %d firings and %d commits for %d acknowledged blocks, want one each", firings, committed, sh.blocks)
	}
	return sh.verify(t, rng)
}

// checkReopen closes a durable instance, recovers its directory into a
// fresh database and requires the recovered dump to equal the one taken
// before the close: every acknowledged write survived.
func checkReopen(in *instance) error {
	want, err := in.db.DumpString()
	if err != nil {
		return err
	}
	if err := in.close(); err != nil {
		return err
	}
	db, err := sopr.OpenDurable(in.dir, sopr.WithFsync(sopr.FsyncAlways))
	if err != nil {
		return fmt.Errorf("check: reopen: %w", err)
	}
	defer db.Close()
	got, err := db.DumpString()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("check: dump after reopen differs from the dump before close (%d vs %d bytes)", len(got), len(want))
	}
	if !strings.Contains(got, "acct") {
		return fmt.Errorf("check: reopened dump has no acct table")
	}
	return nil
}
