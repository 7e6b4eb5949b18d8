package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readBench(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (bf *benchFile) values(workload, metric string) []float64 {
	var out []float64
	for _, o := range bf.Runs {
		if m, ok := o.Metrics[metric]; ok && o.Workload == workload && !o.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric, by the rule the acceptance
// procedure uses: the medians may differ by the metric's bound in the
// worse direction; when either side's own run-to-run spread (quartile
// distance over median) is wider than the bound, the comparison settles
// nothing and says so.
func verdict(spec metricSpec, a, b []float64) (change float64, word string) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	worse := change
	if spec.Better == "higher" {
		worse = -change
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return change, "missing"
	case worse > spec.Bound:
		return change, "worse"
	case max(spread(a), spread(b)) > spec.Bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict. It returns 1 when any
// metric is worse (or missing), 0 otherwise; unresolved is reported, not
// failed, because it says the box was too noisy, not that the code got
// slower.
func compareFiles(spec *manifest, pathA, pathB string, out io.Writer) int {
	a, errA := readBench(pathA)
	b, errB := readBench(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	return compareBench(spec, a, b, out)
}

func compareBench(spec *manifest, a, b *benchFile, out io.Writer) int {
	fmt.Fprintf(out, "a: %s  commit %s  load %.2f\nb: %s  commit %s  load %.2f\n",
		a.When, a.Env.GitCommit, a.Env.LoadAvg, b.When, b.Env.GitCommit, b.Env.LoadAvg)
	if a.Env.Unresolved || b.Env.Unresolved {
		fmt.Fprintln(out, "UNRESOLVED: a set was taken on a box busier than it has processors")
	}
	fmt.Fprintf(out, "%-13s %-18s %5s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "change", "bound", "spread a", "spread b", "verdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			change, word := verdict(m, va, vb)
			if word == "worse" || word == "missing" {
				code = 1
			}
			fmt.Fprintf(out, "%-13s %-18s %2d/%-2d %12.6g %12.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), median(va), median(vb), 100*change, 100*m.Bound,
				100*spread(va), 100*spread(vb), word)
		}
	}
	return code
}
