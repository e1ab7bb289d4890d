// Command mobench regenerates every experiment indexed in DESIGN.md
// and recorded in EXPERIMENTS.md: the paper-artifact reproductions
// E1–E6 (Table 1, Figure 1, Figure 2, Remark 1, the Section-4 example
// queries, the Section-5 Piet-QL pipeline) and the performance
// studies P1–P11 and P13 (P12 is retired; see EXPERIMENTS.md).
//
// Usage:
//
//	mobench               # run everything
//	mobench -exp E4       # run one experiment
//	mobench -exp P2,P9    # run several experiments
//	mobench -list         # list experiment ids
//	mobench -full         # larger sweeps for the P-experiments
//	mobench -workers 8    # cap of the P9 worker-count sweep
//	mobench -grid-cells 32  # force the grid size in P10/P13's accelerated phases
//	mobench -time-buckets 64  # force the per-cell time-bucket count (P10/P13)
//	mobench -json out.json  # also write the reports as JSON ({meta, reports})
//	mobench -baseline BENCH_PR2.json  # print metric deltas vs a prior run;
//	                      # fail if any ns_per_op metric regresses >2x
//	mobench -metrics      # dump engine metrics (Prometheus text) on exit
//	mobench -telemetry-addr localhost:6060  # serve /metrics, /debug/stats, ... during the run
//	mobench -stats stats.json  # write the per-op query-stats table (JSON) on exit
//	mobench -timeout 30s -max-rows 50000000  # bound each engine query
//	mobench -cpuprofile cpu.out -exp P2
//	mobench -memprofile mem.out -trace trace.out
//
// A missing or malformed -baseline file is not fatal: mobench warns
// on stderr, skips the delta table, and exits by the run's own result.
//
// Exit codes: 0 success, 1 experiment failure, 2 setup/regression
// error, 4 interrupted (SIGINT/SIGTERM cancelled the run).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"syscall"

	"mogis/internal/core"
	"mogis/internal/experiments"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
	"mogis/internal/telemetry/telhttp"
)

func main() {
	exp := flag.String("exp", "", "run experiments by id, comma-separated (E1..E6, P1..P11, P13, A1)")
	list := flag.Bool("list", false, "list experiment ids")
	full := flag.Bool("full", false, "run the performance studies at full size")
	workers := flag.Int("workers", 0, "largest worker count in the P9 fan-out sweep (0 = default {1,2,4})")
	gridCells := flag.Int("grid-cells", 0, "grid size the grid experiments (P10, P13) use in their accelerated phases (0 = adaptive auto-sizing)")
	timeBuckets := flag.Int("time-buckets", 0, "per-cell time buckets for the grid experiments (0 = adaptive, <0 disables the temporal index)")
	jsonPath := flag.String("json", "", "write the reports (including Metrics) to this file as JSON")
	baseline := flag.String("baseline", "", "compare metrics against a prior -json file; exit nonzero if a ns_per_op metric regresses >2x")
	metrics := flag.Bool("metrics", false, "print engine metrics in Prometheus text format on exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve the telemetry HTTP pages (/metrics, /debug/stats, /debug/queries, /debug/traces/{id}) on this address during the run; empty disables")
	statsPath := flag.String("stats", "", "write the telemetry query-stats table to this file as JSON on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracefile := flag.String("trace", "", "write a runtime execution trace to this file")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock deadline applied to every engine call (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query budget on scanned rows/samples for every engine call (0 = unlimited)")
	maxResults := flag.Int64("max-results", 0, "per-query budget on result items for every engine call (0 = unlimited)")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the running experiments through the
	// same context plumbing as -timeout (exit 4); a second signal
	// kills the process outright.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	baseCtx := sigCtx
	if *timeout > 0 || *maxRows > 0 || *maxResults > 0 {
		baseCtx = core.WithBudget(baseCtx, core.Budget{
			MaxRows:    *maxRows,
			MaxResults: *maxResults,
			Timeout:    *timeout,
		})
	}
	experiments.SetBaseContext(baseCtx)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// Telemetry spans the whole run: every engine constructed by the
	// experiments reports to the process-wide collector.
	col, stopTelemetry, err := setupTelemetry(*telemetryAddr, *statsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobench: %v\n", err)
		os.Exit(2)
	}

	experiments.SetGridDefaults(*gridCells, *timeBuckets)
	meta := benchMeta{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Full:        *full,
		Workers:     *workers,
		GridCells:   *gridCells,
		TimeBuckets: *timeBuckets,
	}

	// os.Exit skips defers, so the profile/metrics teardown lives in
	// run; main only translates its code.
	code := run(*exp, *full, *metrics, *workers, *jsonPath, *baseline, *cpuprofile, *memprofile, *tracefile, meta)
	if sigCtx.Err() != nil {
		// The run was interrupted; the documented cancellation code
		// wins over whatever partial results produced.
		code = 4
	}
	if *statsPath != "" {
		if err := writeStats(*statsPath, col); err != nil {
			fmt.Fprintf(os.Stderr, "mobench: stats: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
	}
	stopTelemetry()
	os.Exit(code)
}

// setupTelemetry installs the process-wide collector when either
// telemetry flag asks for it and optionally serves the HTTP pages.
func setupTelemetry(addr, statsPath string) (*telemetry.Collector, func(), error) {
	if addr == "" && statsPath == "" {
		return nil, func() {}, nil
	}
	col := telemetry.New(telemetry.Config{})
	telemetry.SetDefault(col)
	if addr == "" {
		return col, func() {}, nil
	}
	srv, err := telhttp.Serve(addr, col)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "mobench: telemetry listening on http://%s\n", srv.Addr)
	return col, func() { srv.Close() }, nil
}

// writeStats snapshots the per-op query-stats table (the same
// document /debug/stats serves) into a JSON file.
func writeStats(path string, col *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteStatsJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workerCounts expands the -workers cap into the doubling sweep P9
// runs: 1, 2, 4, ..., max. Zero keeps P9's default.
func workerCounts(max int) []int {
	if max <= 0 {
		return nil
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// runOne resolves one experiment id at the requested size.
func runOne(id string, full bool, workers int) (experiments.Report, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	if full {
		switch id {
		case "P1":
			return experiments.P1([]int{4, 8, 16, 32}, 200), true
		case "P3":
			return experiments.P3([]int{100, 400, 1600, 6400}), true
		case "P4":
			return experiments.P4([]int{10000, 40000, 160000, 640000}, 200), true
		case "P5":
			return experiments.P5([]int{1000, 4000, 16000, 64000}), true
		case "P6":
			return experiments.P6([]int{10000, 40000, 160000, 640000}, 200), true
		case "P7":
			return experiments.P7([]int{100, 400, 1600}), true
		case "P8":
			return experiments.P8(2000), true
		case "P9":
			return experiments.P9(workerCounts(workers), 4000), true
		case "P10":
			return experiments.P10(4000), true
		case "P11":
			return experiments.P11(2000), true
		case "P13":
			return experiments.P13(4000), true
		}
	}
	if id == "P9" {
		return experiments.P9(workerCounts(workers), 0), true
	}
	return experiments.ByID(id)
}

func run(exp string, full, metrics bool, workers int, jsonPath, baseline, cpuprofile, memprofile, tracefile string, meta benchMeta) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobench: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mobench: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if tracefile != "" {
		f, err := os.Create(tracefile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobench: trace: %v\n", err)
			return 2
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "mobench: trace: %v\n", err)
			return 2
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	defer func() {
		if memprofile != "" {
			writeHeapProfile(memprofile)
		}
		if metrics {
			obs.MetricsDump(os.Stdout)()
		}
	}()

	var reports []experiments.Report
	if exp != "" {
		for _, id := range strings.Split(exp, ",") {
			r, ok := runOne(id, full, workers)
			if !ok {
				fmt.Fprintf(os.Stderr, "mobench: unknown experiment %q (try -list)\n", strings.TrimSpace(id))
				return 2
			}
			reports = append(reports, r)
		}
	} else if full {
		reports = []experiments.Report{
			experiments.E1(), experiments.E2(), experiments.E3(),
			experiments.E4(), experiments.E5(), experiments.E6(),
		}
		for _, id := range []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11", "P13"} {
			r, _ := runOne(id, true, workers)
			reports = append(reports, r)
		}
	} else {
		reports = experiments.All()
	}
	failed := false
	for _, r := range reports {
		fmt.Println(r)
		if !r.Pass {
			failed = true
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, meta, reports); err != nil {
			fmt.Fprintf(os.Stderr, "mobench: json: %v\n", err)
			return 2
		}
	}
	if baseline != "" {
		regressed, err := compareBaseline(os.Stdout, baseline, meta, reports)
		if err != nil {
			// A missing or unreadable baseline is a degraded run, not a
			// failed one: first runs on a fresh checkout have no prior
			// JSON, and CI caches can serve truncated files. Warn, skip
			// the delta table, and let the run's own result decide.
			fmt.Fprintf(os.Stderr, "mobench: warning: baseline %s unusable (%v); skipping comparison\n", baseline, err)
		}
		if regressed {
			fmt.Fprintf(os.Stderr, "mobench: FAIL: a tracked ns_per_op metric regressed more than 2x vs %s\n", baseline)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// benchMeta records the run configuration alongside the reports so a
// later -baseline comparison can tell apples from oranges: timings
// measured under different worker caps, grid sizes or time-bucket
// configs drift for configuration reasons, not performance ones.
type benchMeta struct {
	GoMaxProcs  int  `json:"gomaxprocs"`
	Full        bool `json:"full"`
	Workers     int  `json:"workers"`
	GridCells   int  `json:"grid_cells"`
	TimeBuckets int  `json:"time_buckets"`
}

// benchFile is the on-disk shape of a -json run: a meta header plus
// the reports. Older BENCH_*.json files are a bare report array;
// readBench accepts both.
type benchFile struct {
	Meta    benchMeta            `json:"meta"`
	Reports []experiments.Report `json:"reports"`
}

// readBench parses a benchmark JSON file in either shape. The hasMeta
// result reports whether the file carried a meta header (legacy bare
// arrays have no config to compare against).
func readBench(b []byte) (benchFile, bool, error) {
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err == nil && bf.Reports != nil {
		return bf, true, nil
	}
	var old []experiments.Report
	if err := json.Unmarshal(b, &old); err != nil {
		return benchFile{}, false, err
	}
	return benchFile{Reports: old}, false, nil
}

// warnMetaDrift prints one warning per meta field that differs between
// the baseline run and this one. Drift never fails the run: the
// configs measured different setups, so the deltas are informational.
func warnMetaDrift(path string, old, cur benchMeta) {
	drift := func(field string, oldV, newV any) {
		if oldV != newV {
			fmt.Fprintf(os.Stderr,
				"mobench: warning: baseline %s ran with %s=%v, this run %s=%v; deltas reflect config drift too\n",
				path, field, oldV, field, newV)
		}
	}
	drift("gomaxprocs", old.GoMaxProcs, cur.GoMaxProcs)
	drift("full", old.Full, cur.Full)
	drift("workers", old.Workers, cur.Workers)
	drift("grid-cells", old.GridCells, cur.GridCells)
	drift("time-buckets", old.TimeBuckets, cur.TimeBuckets)
}

// compareBaseline prints a per-metric delta table between a prior
// -json run and this one, matching metrics by (experiment id, metric
// key). Metrics present on only one side are skipped: they are new or
// retired, not regressions. When the baseline carries a meta header,
// every differing config field (workers, grid cells, time buckets, …)
// is warned about first. When an experiment recorded a "gomaxprocs"
// metric on both sides and the values differ, its timing and speedup
// deltas are shown but never flagged: the runs measured different
// parallel hardware, so a slowdown is expected, not a regression
// (mobench warns instead of failing). Returns true if any comparable
// metric whose name contains "ns_per_op" got more than 2x slower.
func compareBaseline(w *os.File, path string, meta benchMeta, reports []experiments.Report) (bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	bf, hasMeta, err := readBench(b)
	if err != nil {
		return false, err
	}
	if hasMeta {
		warnMetaDrift(path, bf.Meta, meta)
	}
	old := bf.Reports
	oldMets := make(map[string]map[string]float64, len(old))
	for _, r := range old {
		oldMets[r.ID] = r.Metrics
	}
	fmt.Fprintf(w, "=== baseline deltas vs %s (new/old; ns_per_op ratios > 2.00 fail)\n", path)
	regressed := false
	for _, r := range reports {
		prior := oldMets[r.ID]
		if len(prior) == 0 || len(r.Metrics) == 0 {
			continue
		}
		procsDiffer := false
		if oldProcs, ok := prior["gomaxprocs"]; ok {
			if newProcs, ok := r.Metrics["gomaxprocs"]; ok && oldProcs != newProcs {
				procsDiffer = true
				fmt.Fprintf(os.Stderr,
					"mobench: warning: %s baseline ran at GOMAXPROCS=%.0f, this run at %.0f; "+
						"speedup comparisons are informational only\n",
					r.ID, oldProcs, newProcs)
			}
		}
		var rows []experiments.Row
		for _, key := range sortedKeys(r.Metrics) {
			oldV, ok := prior[key]
			if !ok {
				continue
			}
			newV := r.Metrics[key]
			mark := ""
			ratio := "-"
			if oldV != 0 {
				q := newV / oldV
				ratio = fmt.Sprintf("%.2f", q)
				if strings.Contains(key, "ns_per_op") && q > 2.0 {
					if procsDiffer {
						mark = "  (gomaxprocs differs; not gated)"
					} else {
						mark = "  REGRESSED"
						regressed = true
					}
				}
			}
			rows = append(rows, experiments.Row{
				Label:  key,
				Values: []string{fmtMetric(oldV), fmtMetric(newV), ratio + mark},
			})
		}
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "--- %s\n%s", r.ID, experiments.Table([]string{"metric", "old", "new", "ratio"}, rows))
	}
	return regressed, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtMetric keeps counters integral and timings/ratios readable.
func fmtMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

func writeJSON(path string, meta benchMeta, reports []experiments.Report) error {
	b, err := json.MarshalIndent(benchFile{Meta: meta, Reports: reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobench: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "mobench: memprofile: %v\n", err)
	}
}
