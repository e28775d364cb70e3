package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Manifest.Quick {
		return nil, fmt.Errorf("%s holds -quick results, which are smoke runs and not comparable", path)
	}
	return &res, nil
}

// untracedValues returns the metric's value on each untraced pass of the
// workload, in pass order.
func untracedValues(res *results, workload, metric string) []float64 {
	var out []float64
	for _, p := range res.Passes {
		if p.Workload == workload && !p.Traced {
			if v, ok := p.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// judge gives the verdict for one metric from the paired values of the
// parent (old) and the change (new). A gain needs nine tenths of the pairs,
// ties counting for neither side, and medians further apart than the
// parent's own interquartile spread. A regression is a median worse than
// the parent's by more than the bound, decided by the same two conditions
// in the other direction; when they do not hold, or when the parent's own
// spread is wider than the bound and the runs of the change are not all
// clear of the parent's, the row is unresolved. exact metrics are simulated
// statistics and compare by equality.
func judge(d metricDef, exact bool, old, new []float64) (verdict string, won float64) {
	n := min(len(old), len(new))
	old, new = old[:n], new[:n]
	sign := 1.0 // positive differences are improvements
	if d.Better == lower {
		sign = -1
	}
	wins, losses := 0, 0
	clearOfParent := true // every run of the change beats every run of the parent
	for i := range old {
		switch diff := sign * (new[i] - old[i]); {
		case diff > 0:
			wins++
		case diff < 0:
			losses++
		}
		for _, o := range old {
			if sign*(new[i]-o) <= 0 {
				clearOfParent = false
			}
		}
	}
	won = float64(wins) / float64(n)
	so, sn := summarize(old), summarize(new)
	gain := sign * (sn.Median - so.Median)
	if exact {
		switch {
		case wins == 0 && losses == 0:
			return verdictUnchanged, won
		case gain > 0:
			return verdictBetter, won
		case gain < 0:
			return verdictWorse, won
		}
		return verdictUnresolved, won
	}
	iqr := so.Q3 - so.Q1
	bound := d.Bound * math.Abs(so.Median)
	decided := func(count int, gap float64) bool { return float64(count) >= 0.9*float64(n) && gap > iqr }
	switch {
	case decided(wins, gain):
		return verdictBetter, won
	case -gain > bound && decided(losses, -gain):
		return verdictWorse, won
	case -gain > bound, iqr > bound && !clearOfParent:
		return verdictUnresolved, won
	}
	return verdictUnchanged, won
}

// compareResults prints one row per (workload, end-to-end metric) pairing
// of two result files and reports whether any row is worse.
func compareResults(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  git %s dirty=%v  %s nproc=%d seed=%d\n", oldPath, old.Manifest.GitSHA, old.Manifest.GitDirty, old.Manifest.GoVersion, old.Manifest.NProc, old.Manifest.BaseSeed)
	fmt.Fprintf(w, "new: %s  git %s dirty=%v  %s nproc=%d seed=%d\n", newPath, cur.Manifest.GitSHA, cur.Manifest.GitDirty, cur.Manifest.GoVersion, cur.Manifest.NProc, cur.Manifest.BaseSeed)
	if old.Manifest.BaseSeed != cur.Manifest.BaseSeed {
		fmt.Fprintln(w, "warning: base seeds differ, so exact metrics and fingerprints are expected to differ")
	}
	fmt.Fprintf(w, "%-15s %-22s %-30s %-30s %-26s %-9s %s\n", "workload", "metric", "old median [q1,q3]", "new median [q1,q3]", "ratio (base)", "pairs won", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			ov, nv := untracedValues(old, wl, d.Name), untracedValues(cur, wl, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			// The live cluster runs in real time: none of its metrics repeats
			// bit for bit.
			verdict, won := judge(d, d.Exact && wl != wlLive, ov, nv)
			anyWorse = anyWorse || verdict == verdictWorse
			so, sn := summarize(ov), summarize(nv)
			ratio := "n/a"
			if so.Median != 0 {
				ratio = fmt.Sprintf("%.4fx of %.6g %s", sn.Median/so.Median, so.Median, d.Unit)
			}
			fmt.Fprintf(w, "%-15s %-22s %-30s %-30s %-26s %-9s %s\n", wl, d.Name,
				fmt.Sprintf("%.6g [%.6g,%.6g]", so.Median, so.Q1, so.Q3),
				fmt.Sprintf("%.6g [%.6g,%.6g]", sn.Median, sn.Q1, sn.Q3),
				ratio, fmt.Sprintf("%.0f%% of %d", 100*won, min(len(ov), len(nv))), verdict)
		}
		same, differ := compareFingerprints(old, cur, wl)
		if same+differ > 0 {
			fmt.Fprintf(w, "%-15s fingerprints: %d identical, %d differ\n", wl, same, differ)
		}
	}
	return anyWorse, nil
}

// compareFingerprints counts the runs both files hold whose simulated
// statistics agree and disagree.
func compareFingerprints(old, cur *results, workload string) (same, differ int) {
	collect := func(res *results) map[string]string {
		out := map[string]string{}
		for _, p := range res.Passes {
			if p.Workload == workload {
				for k, v := range p.Fingerprints {
					out[k] = v
				}
			}
		}
		return out
	}
	o, c := collect(old), collect(cur)
	for k, v := range o {
		if cv, ok := c[k]; ok {
			if cv == v {
				same++
			} else {
				differ++
			}
		}
	}
	return same, differ
}
