package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one workload × metric comparison.
const (
	verdictSame       = "within bound"
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// readResults reads a result file: one JSON result per line, any mix of
// workloads and passes.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// untracedValues collects one metric of one workload over the untraced
// runs of a result file; only those carry the bounded metrics.
func untracedValues(runs []result, workload, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// side is one side's runs of one workload × metric.
type side struct {
	q1, median, q3  float64
	relSpread       float64 // (q3−q1)/median
	lowest, highest float64
}

func newSide(vals []float64) side {
	s := side{q1: quantile(vals, 0.25), median: median(vals), q3: quantile(vals, 0.75)}
	if s.median != 0 {
		s.relSpread = (s.q3 - s.q1) / abs(s.median)
	}
	s.lowest, s.highest = quantile(vals, 0), quantile(vals, 1)
	return s
}

// judge compares the new side against the old for one metric. worsening
// is the relative change of the median in the bad direction. A spread
// wider than the bound on either side leaves the row unresolved unless
// every run of one side beats every run of the other.
func judge(m metric, old, new side) (verdict string, worsening float64) {
	if old.median == 0 {
		return verdictUnresolved, 0
	}
	worsening = (new.median - old.median) / abs(old.median)
	newBeatsAll, oldBeatsAll := new.highest < old.lowest, old.highest < new.lowest
	if m.Better == higher {
		worsening = -worsening
		newBeatsAll, oldBeatsAll = new.lowest > old.highest, old.lowest > new.highest
	}
	noisy := old.relSpread > m.Bound || new.relSpread > m.Bound
	switch {
	case noisy && !newBeatsAll && !oldBeatsAll:
		return verdictUnresolved, worsening
	case worsening > m.Bound:
		return verdictWorse, worsening
	case worsening < -m.Bound:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

// runCompare prints one row per workload × end-to-end metric and
// returns the exit code: 1 only on a resolved worsening beyond the
// bound or a larger share of failed operations.
func runCompare(oldPath, newPath string, w io.Writer) int {
	oldRuns, err := readResults(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	newRuns, err := readResults(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	failShare := func(runs []result, workload string) (float64, int) {
		var ops, failed, n int
		for _, r := range runs {
			if r.Workload == workload {
				ops, failed, n = ops+r.Ops, failed+r.OpsFailed, n+1
			}
		}
		if ops == 0 {
			return 0, n
		}
		return float64(failed) / float64(ops), n
	}

	exit := 0
	fmt.Fprintf(w, "%-14s %-22s %-7s %32s %32s %9s  %s\n", "workload", "metric", "unit",
		"old q1/median/q3 (n)", "new q1/median/q3 (n)", "new/old", "verdict")
	for _, wl := range workloads {
		oldShare, nOld := failShare(oldRuns, wl.Name)
		newShare, nNew := failShare(newRuns, wl.Name)
		if nOld == 0 || nNew == 0 {
			continue
		}
		for _, m := range endToEnd {
			ov, nv := untracedValues(oldRuns, wl.Name, m.Name), untracedValues(newRuns, wl.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o, n := newSide(ov), newSide(nv)
			verdict, worsening := judge(m, o, n)
			if verdict == verdictWorse {
				exit = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %-7s %32s %32s %9s  %s (%+.1f%% vs bound %.0f%%)\n",
				wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.5g/%.5g/%.5g (%d)", o.q1, o.median, o.q3, len(ov)),
				fmt.Sprintf("%.5g/%.5g/%.5g (%d)", n.q1, n.median, n.q3, len(nv)),
				fmt.Sprintf("%.4f", n.median/o.median), verdict, worsening*100, m.Bound*100)
		}
		if newShare > oldShare {
			exit = 1
			fmt.Fprintf(w, "%-14s ops_failed/ops rose from %.4g to %.4g: WORSE\n", wl.Name, oldShare, newShare)
		}
	}
	return exit
}
