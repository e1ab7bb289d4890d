// Command mobench regenerates every experiment indexed in DESIGN.md
// and recorded in EXPERIMENTS.md: the paper-artifact reproductions
// E1–E6 (Table 1, Figure 1, Figure 2, Remark 1, the Section-4 example
// queries, the Section-5 Piet-QL pipeline) and the performance
// studies P1–P3, P5, P7, P8, P10, P11 and P13, and the ablation A1
// (the missing P numbers are retired; see EXPERIMENTS.md).
//
// Usage:
//
//	mobench               # run everything
//	mobench -exp E4       # run one experiment
//	mobench -exp P2,P10   # run several experiments
//	mobench -list         # list experiment ids in run order
//	mobench -full         # larger sweeps for the P-experiments
//	mobench -metrics      # dump engine metrics (Prometheus text) on exit
//	mobench -telemetry-addr localhost:6060  # serve /metrics, /debug/stats, ... during the run
//	mobench -stats stats.json  # write the per-op query-stats table (JSON) on exit
//	mobench -timeout 30s -max-rows 50000000  # bound each engine query
//	mobench -cpuprofile cpu.out -exp P2
//	mobench -memprofile mem.out -trace trace.out
//
// Exit codes: 0 success, 1 experiment failure, 2 setup error or
// unknown experiment id, 4 interrupted (SIGINT/SIGTERM cancelled the
// run).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"

	"mogis/internal/core"
	"mogis/internal/experiments"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
	"mogis/internal/telemetry/telhttp"
)

func main() {
	exp := flag.String("exp", "", "run experiments by id, comma-separated (E1..E6, P1..P3, P5, P7, P8, P10, P11, P13, A1)")
	list := flag.Bool("list", false, "list experiment ids")
	full := flag.Bool("full", false, "run the performance studies at full size")
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

	// os.Exit skips defers, so the profile/metrics teardown lives in
	// run; main only translates its code.
	code := run(*exp, *full, *metrics, *cpuprofile, *memprofile, *tracefile)
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

func run(exp string, full, metrics bool, cpuprofile, memprofile, tracefile string) int {
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

	ids := experiments.IDs()
	if exp != "" {
		ids = strings.Split(exp, ",")
	}
	var reports []experiments.Report
	for _, id := range ids {
		r, ok := experiments.Run(id, full)
		if !ok {
			fmt.Fprintf(os.Stderr, "mobench: unknown experiment %q (try -list)\n", strings.TrimSpace(id))
			return 2
		}
		reports = append(reports, r)
	}
	failed := false
	for _, r := range reports {
		fmt.Println(r)
		if !r.Pass {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
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
