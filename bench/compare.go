package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric over a workload's untraced runs.
func (wr *workloadReport) values(name string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (wr *workloadReport) failRatio() float64 {
	var failed, attempted int
	for _, r := range wr.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares medians a (the base) and b of a metric: b regressed when it
// is worse than a by more than bound of a; otherwise the row is unresolved
// when either side's run-to-run spread is wider than the bound, because then
// "no worse" was not shown.
func judge(s metricSpec, a, b, spreadA, spreadB float64) (worse float64, verdict string) {
	if a != 0 {
		worse = (b - a) / a
		if s.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > s.Bound:
		return worse, verdictRegressed
	case spreadA > s.Bound || spreadB > s.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareReports prints one row per workload × end-to-end metric of report
// B against report A and reports whether anything regressed.
func compareReports(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA spread\tB median\tB spread\tB/A (base A)\tbound\tverdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			return false, fmt.Errorf("workload %s is missing from a report", w.name)
		}
		for _, s := range endToEnd {
			va, vb := wa.values(s.Name), wb.values(s.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from a report", w.name, s.Name)
			}
			ma, mb := median(va), median(vb)
			_, verdict := judge(s, ma, mb, spread(va), spread(vb))
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.3f\t%.4g %s\t%.3f\t%.3f of %.4g\t%.2f\t%s\n",
				w.name, s.Name, ma, s.Unit, spread(va), mb, s.Unit, spread(vb), ratio(mb, ma), ma, s.Bound, verdict)
		}
		fa, fb := wa.failRatio(), wb.failRatio()
		verdict := verdictOK
		if fb > fa {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g\t\t%.4g\t\t\tany increase\t%s\n", w.name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s seed %d, %d run(s) per workload; B: %s seed %d, %d run(s). Spread is the interquartile distance over runs as a share of the median (0 with one run).\n",
		a.Env.Commit, a.Env.Seed, len(a.Workloads[workloads[0].name].Runs),
		b.Env.Commit, b.Env.Seed, len(b.Workloads[workloads[0].name].Runs))
	return regressed, nil
}
