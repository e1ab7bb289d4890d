package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// readRuns loads a -json file: one runResult per line.
func readRuns(path string) ([]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	var runs []*runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, nil
}

// valuesOf collects one metric's values over the untraced runs of one
// workload.
func valuesOf(runs []*runResult, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// judge compares the medians of base and change for one metric. A
// spread wider than the bound on either side leaves the row
// unresolved; fail_ratio (bound 0) regresses on any increase.
func judge(d metricDef, base, change []float64) (ratio float64, verdict string) {
	a, b := median(base), median(change)
	if a != 0 {
		ratio = b / a
	}
	worse := b - a
	if d.higher {
		worse = a - b
	}
	switch {
	case d.bound > 0 && (spread(base) > d.bound || spread(change) > d.bound):
		return ratio, verdictUnresolved
	case worse > d.bound*a:
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compareFiles prints one row per workload × end-to-end metric and
// returns 1 if any row regressed or is unresolved.
func compareFiles(w io.Writer, basePath, changePath string) int {
	var sides [2][]*runResult
	for i, path := range []string{basePath, changePath} {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		sides[i] = runs
	}
	return compareRuns(w, sides[0], sides[1])
}

func compareRuns(w io.Writer, base, change []*runResult) int {
	fmt.Fprintf(w, "%-13s %-27s %12s %12s %16s %6s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	bad := 0
	defs := append(append([]metricDef(nil), contractMetrics...), detailMetrics()...)
	for _, s := range specs {
		for _, d := range defs {
			a, b := valuesOf(base, s.name, d.name), valuesOf(change, s.name, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ratio, verdict := judge(d, a, b)
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-27s %12.4f %12.4f %7.3f of %-6.4g %5.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				s.name, d.name, median(a), median(b), ratio, median(a), d.bound*100, verdict,
				len(a), len(b), spread(a)*100, spread(b)*100)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
