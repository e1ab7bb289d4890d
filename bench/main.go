// Command bench is the mogisd end-to-end benchmark: it builds a
// synthetic city, serves it through an in-process server.Server with
// mogisd's defaults and drives it over real HTTP with four workloads.
// See README.md for the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef fixes one end-to-end metric: unit, direction and the share
// of the baseline by which it may worsen before it counts as a
// regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// contractMetrics are reported by every workload (BENCHMARK.json's
// end_to_end list): latency and throughput of the workload's primary
// request kind — queries, or ingest batches on ingest_fence.
var contractMetrics = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_tail_ms", "ms", false, 0.25},
	{"throughput_per_s", "1/s", true, 0.25},
	{"alloc_kb_per_op", "KB", false, 0.15},
}

// detailMetrics are the same numbers under the name of their request
// kind, plus the metrics only some workloads have; -compare checks
// both lists. A tail is named after the percentile the sample count
// supports (see timings.tail), so every percentile has an entry.
func detailMetrics() []metricDef {
	var out []metricDef
	for _, kind := range []string{"query", "ingest", "event_lag"} {
		for _, p := range []string{"p50", "p75", "p90", "p95", "p99", "max"} {
			out = append(out, metricDef{kind + "_" + p + "_ms", "ms", false, 0.25})
		}
	}
	return append(out,
		metricDef{"query_stall_ms", "ms", false, 0.25},
		metricDef{"query_qps", "1/s", true, 0.25},
		metricDef{"ingest_capacity_rows_per_s", "rows/s", true, 0.25},
		metricDef{"fail_ratio", "ratio", false, 0},
	)
}

// meta records what a run's numbers depend on.
type meta struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	City       int64  `json:"city"`
	SubSeed    int64  `json:"sub_seed"`
	GuardStep  int    `json:"guard_step"`
	Smoke      bool   `json:"smoke,omitempty"`
}

// summary is the last line of a run over several workloads.
type summary struct {
	Meta  meta         `json:"meta"`
	Runs  []*runResult `json:"runs"`
	Claim *string      `json:"claim"` // always null: the benchmark claims no gain
}

// contractLine is the last line of a single-workload run, in the
// driver's format.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// spreadTraceFlag lets -trace stand alone, as the issue writes it, or
// take the driver's 0/1 argument.
func spreadTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a != "-trace" && a != "--trace" {
			out = append(out, a)
			continue
		}
		v := "1"
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			v = args[i+1]
			i++
		}
		out = append(out, "-trace="+v)
	}
	return out
}

// run is main without the process exit, so tests can drive it.
func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print the driver's result line (default: all four, then a summary)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same request and ingest streams")
	city := fs.Int64("city", 1, "city seed: generates the city and the trajectories; another value re-checks a claim on an unseen instance")
	seconds := fs.Float64("seconds", 24, "measured window per workload")
	trace := fs.Bool("trace", false, "traced run: fixed op counts, per-layer metrics, spans written under -out")
	jsonPath := fs.String("json", "", "append each run's result to this file, one JSON object per line (the input of -compare)")
	outDir := fs.String("out", "bench/out", "directory for trace files")
	smoke := fs.Bool("smoke", false, "tiny city and a 1 s window: exercises the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare A.jsonl B.jsonl")
	if err := fs.Parse(spreadTraceFlag(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	todo := specs
	if *workload != "" {
		s, ok := specNamed(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{s}
	}
	size, scale, window := fullSize, 1, time.Duration(*seconds*float64(time.Second))
	if *smoke {
		size, scale, window = smokeSize, 10, time.Second
	}

	if err := preflight(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sub, step, regions, err := resolveSeed(ctx, *city, size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sum := summary{Meta: meta{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, City: *city, SubSeed: sub, GuardStep: step, Smoke: *smoke,
	}}
	fmt.Fprintf(stdout, "seed %d; city %d -> sub-seed %d (guard step %d); nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		*seed, *city, sub, step, sum.Meta.Nproc, sum.Meta.GOMAXPROCS, sum.Meta.GoVersion, sum.Meta.Commit)
	for _, name := range regionNames {
		fmt.Fprintf(stdout, "region %s: %d polygons\n", name, len(regions[name]))
	}

	failed := false
	for _, s := range todo {
		var res *runResult
		if *trace {
			res, err = traceRun(ctx, s, *seed, sub, size, scale, *outDir)
		} else {
			res, err = measure(ctx, s, *seed, sub, size, window, scale)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		report(stdout, res)
		if *jsonPath != "" {
			if err := appendJSON(*jsonPath, res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		sum.Runs = append(sum.Runs, res)
		failed = failed || res.Failed > 0
	}

	var last any = sum
	if *workload != "" {
		last = contractOf(sum.Runs[0], *trace)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: answer checks failed")
		return 1
	}
	return 0
}

// contractOf keeps the metrics the driver's contract names: every
// end-to-end metric untraced, every per-layer metric traced.
func contractOf(res *runResult, traced bool) contractLine {
	names := layerMetricNames
	if !traced {
		names = nil
		for _, d := range contractMetrics {
			names = append(names, d.name)
		}
	}
	out := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractValue, len(names))}
	for _, n := range names {
		m := res.Metrics[n]
		out.Metrics[n] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// report prints every metric of a run by name, with unit and sample
// count.
func report(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n%s (seed %d, %.1f s measured, %d attempted, %d failed)\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %-7s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// appendJSON appends one result line to path.
func appendJSON(path string, res *runResult) (err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	if err := json.NewEncoder(f).Encode(res); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// commit is the VCS revision stamped into the binary, when there is
// one (the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
