package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// runSet is every tracing-off run found in one out directory, grouped by
// workload: each end-to-end metric's value in each run, and the runs'
// operations attempted and failed.
type runSet struct {
	values    map[string]map[string][]float64 // workload -> metric -> one value per run
	attempted map[string]int64
	failed    map[string]int64
}

func loadRunSet(dir string) (*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result-*.json in %s", dir)
	}
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rs.values[rf.Workload] == nil {
			rs.values[rf.Workload] = map[string][]float64{}
		}
		for name, s := range rf.EndToEnd {
			rs.values[rf.Workload][name] = append(rs.values[rf.Workload][name], s.Value)
		}
		rs.attempted[rf.Workload] += rf.Attempted
		rs.failed[rf.Workload] += rf.Failed
	}
	return rs, nil
}

// verdict judges one (workload, metric) pair. worsening is the new
// median's distance from the old one as a share of the old one, signed
// so that positive is worse.
//
//	unresolved  either side's run-to-run spread is wider than the bound,
//	            so the pair cannot say the metric held
//	worse       worsened by more than the bound
//	better      improved by more than the bound
//	same        anything else
func verdict(d metricDef, old, new summary) (worsening float64, v string) {
	worsening = (new.Median - old.Median) / old.Median
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case math.Max(old.spread(), new.spread()) > d.Bound:
		v = "unresolved"
	case worsening > d.Bound:
		v = "worse"
	case -worsening > d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return worsening, v
}

// runCompare prints one row per (workload, end-to-end metric) and returns
// the exit status: 1 when any metric is worse or the new side failed a
// larger share of its operations. It is the regression gate.
func runCompare(w io.Writer, oldDir, newDir string) int {
	oldSet, err := loadRunSet(oldDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	newSet, err := loadRunSet(newDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	return compareSets(w, oldSet, newSet)
}

func compareSets(w io.Writer, oldSet, newSet *runSet) int {
	status := 0
	fmt.Fprintf(w, "%-18s %-21s %-7s %14s %22s %3s %14s %22s %3s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median", "[q1, q3]", "n", "new median", "[q1, q3]", "n", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		oldM, newM := oldSet.values[wl.name], newSet.values[wl.name]
		if oldM == nil || newM == nil {
			continue
		}
		for _, d := range endToEnd {
			if len(oldM[d.Name]) == 0 || len(newM[d.Name]) == 0 {
				continue
			}
			o, n := summarize(oldM[d.Name]), summarize(newM[d.Name])
			worsening, v := verdict(d, o, n)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-18s %-21s %-7s %14.4f %22s %3d %14.4f %22s %3d %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.Name, d.Unit,
				o.Median, fmt.Sprintf("[%.4g, %.4g]", o.Q1, o.Q3), o.N,
				n.Median, fmt.Sprintf("[%.4g, %.4g]", n.Q1, n.Q3), n.N,
				100*worsening, 100*d.Bound, v)
		}
		oldShare := ratio(float64(oldSet.failed[wl.name]), float64(oldSet.attempted[wl.name]))
		newShare := ratio(float64(newSet.failed[wl.name]), float64(newSet.attempted[wl.name]))
		if newShare > oldShare {
			status = 1
			fmt.Fprintf(w, "%-18s failed share rose from %.6f to %.6f\n", wl.name, oldShare, newShare)
		}
	}
	return status
}
