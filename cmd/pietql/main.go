// Command pietql runs Piet-QL queries (Section 5 of the paper)
// against either the paper's running example or a generated synthetic
// city. Queries are read from -query, from files given as arguments,
// or interactively from stdin (terminated by a blank line).
//
// A query prefixed with EXPLAIN prints the evaluation plan; EXPLAIN
// ANALYZE runs it with a per-query trace and prints the span tree
// plus the engine-counter deltas (overlay and litCache hits, geometry
// predicate counts, ...).
//
// Usage:
//
//	pietql -query "SELECT layer.Ln; FROM PietSchema;"
//	pietql -query "EXPLAIN ANALYZE SELECT layer.Ln; FROM PietSchema;"
//	pietql query.pql
//	pietql -city -grid 8          # synthetic city instead of the paper scenario
//	pietql -explain-remark1       # trace the paper's Remark 1 query
//	pietql -metrics -query "..."  # dump Prometheus metrics after the run
//	pietql -timeout 2s -max-rows 1000000 -query "..."
//	pietql -telemetry-addr localhost:6060   # /metrics, /debug/stats, /debug/queries, /debug/traces/{id}
//	pietql -query-log queries.jsonl -query "..."  # structured JSONL query log
//	echo "..." | pietql -
//
// Exit codes: 0 success, 1 setup or I/O error, 2 query parse error,
// 3 evaluation error (including resource-budget aborts), 4 timeout or
// cancellation.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mogis/internal/core"
	"mogis/internal/fo"
	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/pietql"
	"mogis/internal/qerr"
	"mogis/internal/scenario"
	"mogis/internal/store"
	"mogis/internal/telemetry"
	"mogis/internal/telemetry/telhttp"
	"mogis/internal/workload"
)

// queryLimits carries the CLI's -timeout/-max-rows/-max-results into
// each query's context.
var queryLimits struct {
	timeout    time.Duration
	maxRows    int64
	maxResults int64
}

// baseCtx is the process-lifetime context: main swaps in the
// signal.NotifyContext so SIGINT/SIGTERM cancels through the same
// plumbing as -timeout, and an interrupted query exits 4.
var baseCtx = context.Background()

// queryContext builds the per-query context: the signal-aware base, a
// wall-clock deadline from -timeout and a core.Budget from
// -max-rows/-max-results.
func queryContext() (context.Context, context.CancelFunc) {
	ctx, cancel := baseCtx, context.CancelFunc(func() {})
	if queryLimits.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, queryLimits.timeout)
	}
	if queryLimits.maxRows > 0 || queryLimits.maxResults > 0 {
		ctx = core.WithBudget(ctx, core.Budget{
			MaxRows:    queryLimits.maxRows,
			MaxResults: queryLimits.maxResults,
		})
	}
	return ctx, cancel
}

func main() {
	query := flag.String("query", "", "run one query and exit")
	load := flag.String("load", "", "load a dataset directory written by mogen instead of the paper scenario")
	useCity := flag.Bool("city", false, "use a generated synthetic city instead of the paper scenario")
	grid := flag.Int("grid", 8, "synthetic city grid dimension")
	objects := flag.Int("objects", 100, "synthetic moving objects")
	seed := flag.Int64("seed", 1, "synthetic generator seed")
	noOverlay := flag.Bool("no-overlay", false, "disable the precomputed overlay (naive geometry)")
	metrics := flag.Bool("metrics", false, "print engine metrics in Prometheus text format on exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve the telemetry HTTP pages (/metrics, /debug/stats, /debug/queries, /debug/traces/{id}) on this address; empty disables the listener")
	queryLogPath := flag.String("query-log", "", "append the structured JSONL query log to this file (\"-\" for stderr)")
	explainRemark1 := flag.Bool("explain-remark1", false, "trace the paper's Remark 1 motivating query and exit")
	verbose := flag.Bool("v", false, "log engine events (overlay precomputation, ...) to stderr")
	flag.DurationVar(&queryLimits.timeout, "timeout", 0, "per-query wall-clock deadline (0 = none); exceeding it exits 4")
	flag.Int64Var(&queryLimits.maxRows, "max-rows", 0, "per-query budget on scanned MOFT rows / trajectory samples (0 = unlimited); exceeding it exits 3")
	flag.Int64Var(&queryLimits.maxResults, "max-results", 0, "per-query budget on result items (0 = unlimited); exceeding it exits 3")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `usage: pietql [flags] [query-file | -] ...

Exit codes:
  0  success
  1  setup or I/O error
  2  query parse error
  3  evaluation error (including -max-rows/-max-results budget aborts)
  4  timeout (-timeout) or cancellation

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	// Ctrl-C cancels the running query through the normal context
	// plumbing (exit 4); a second signal kills the process outright.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	baseCtx = ctx

	if *verbose {
		obs.SetLogOutput(os.Stderr)
	}

	// dump flushes the -metrics Prometheus text at most once, shared
	// by the deferred normal-return path and the os.Exit paths.
	dump := func() {}
	if *metrics {
		dump = obs.MetricsDump(os.Stdout)
	}
	defer dump()

	stopTelemetry, err := setupTelemetry(*telemetryAddr, *queryLogPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pietql: %v\n", err)
		os.Exit(1)
	}
	defer stopTelemetry()

	if *explainRemark1 {
		if err := runExplainRemark1(); err != nil {
			fmt.Fprintf(os.Stderr, "pietql: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var sys *pietql.System
	if *load != "" {
		sys, err = loadSystem(*load, !*noOverlay)
	} else {
		sys, err = buildSystem(*useCity, *grid, *objects, *seed, !*noOverlay)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pietql: %v\n", err)
		if qerr.IsCancel(err) {
			os.Exit(4)
		}
		os.Exit(1)
	}
	switch {
	case *query != "":
		exit(runQuery(sys, *query), dump)
	case flag.NArg() > 0:
		for _, arg := range flag.Args() {
			var text []byte
			var err error
			if arg == "-" {
				text, err = readAll(os.Stdin)
			} else {
				text, err = os.ReadFile(arg)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pietql: %v\n", err)
				os.Exit(1)
			}
			if code := runQuery(sys, string(text)); code != 0 {
				exit(code, dump)
			}
		}
	default:
		repl(sys)
	}
}

// setupTelemetry installs the process-wide telemetry collector when
// -telemetry-addr or -query-log asks for it, serving the HTTP pages
// and/or streaming the JSONL query log. The returned stop function
// closes the listener and the log file.
func setupTelemetry(addr, logPath string) (func(), error) {
	if addr == "" && logPath == "" {
		return func() {}, nil
	}
	cfg := telemetry.Config{}
	var logFile *os.File
	switch logPath {
	case "":
	case "-":
		cfg.LogWriter = os.Stderr
	default:
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("query-log: %w", err)
		}
		logFile, cfg.LogWriter = f, f
	}
	col := telemetry.New(cfg)
	telemetry.SetDefault(col)
	var srv *telhttp.Server
	if addr != "" {
		var err error
		srv, err = telhttp.Serve(addr, col)
		if err != nil {
			if logFile != nil {
				logFile.Close()
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "pietql: telemetry listening on http://%s\n", srv.Addr)
	}
	return func() {
		srv.Close()
		if logFile != nil {
			logFile.Close()
		}
	}, nil
}

// exit flushes the -metrics dump (normally handled by the deferred
// call, which os.Exit would skip) and terminates with code.
func exit(code int, dump func()) {
	if code == 0 {
		return
	}
	dump()
	os.Exit(code)
}

func readAll(f *os.File) ([]byte, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), sc.Err()
}

// runExplainRemark1 evaluates the paper's motivating query (Remark 1:
// buses per hour in the low-income morning neighborhoods, 4/3) with a
// trace attached and prints the span tree and counter deltas. The
// query's income filter is not expressible in the Piet-QL grammar, so
// it runs as the first-order formula of Section 3.1.
func runExplainRemark1() error {
	s := scenario.New()
	tr := obs.NewTracer("remark1")
	before := obs.Default.Snapshot()
	rate, err := s.MotivatingResult(obs.WithTracer(context.Background(), tr))
	root := tr.Finish()
	if err != nil {
		return err
	}
	fmt.Print(obs.FormatExplain(root, obs.Default.Snapshot().Since(before)))
	fmt.Printf("result: %.4f buses per hour (Remark 1: 4/3)\n", rate)
	return nil
}

// runQuery evaluates one query under the CLI's timeout/budget context
// and returns the process exit code for it: 0 success, 2 parse error,
// 3 evaluation error, 4 timeout or cancellation.
func runQuery(sys *pietql.System, q string) int {
	ctx, cancel := queryContext()
	defer cancel()
	out, err := sys.Run(ctx, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		switch {
		case qerr.IsParseError(err):
			return 2
		case qerr.IsCancel(err):
			return 4
		default:
			return 3
		}
	}
	fmt.Print(pietql.FormatOutcome(out))
	return 0
}

func repl(sys *pietql.System) {
	fmt.Println("Piet-QL — enter a query, finish with a blank line (Ctrl-D to quit)")
	sc := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	fmt.Print("> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			if q := strings.TrimSpace(buf.String()); q != "" {
				runQuery(sys, q)
			}
			buf.Reset()
			fmt.Print("> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	if q := strings.TrimSpace(buf.String()); q != "" {
		runQuery(sys, q)
	}
}

// loadSystem wires a Piet-QL system over a dataset directory written
// by mogen (package store formats).
func loadSystem(dir string, withOverlay bool) (*pietql.System, error) {
	ds, err := store.Load(dir)
	if err != nil {
		return nil, err
	}
	ctx, eng, err := ds.Context()
	if err != nil {
		return nil, err
	}
	kinds := map[string]layer.Kind{"Ln": layer.KindPolygon}
	layers := map[string]*layer.Layer{"Ln": ds.Ln}
	if ds.Lr != nil {
		kinds["Lr"] = layer.KindPolyline
		layers["Lr"] = ds.Lr
	}
	if ds.Lh != nil {
		kinds["Lh"] = layer.KindPolyline
		layers["Lh"] = ds.Lh
	}
	if ds.Ls != nil {
		kinds["Ls"] = layer.KindNode
		layers["Ls"] = ds.Ls
	}
	if ds.Lstores != nil {
		kinds["Lstores"] = layer.KindNode
		layers["Lstores"] = ds.Lstores
	}
	sys := &pietql.System{
		Ctx: ctx, Engine: eng, Kinds: kinds, SchemaName: "PietSchema",
		Cubes: mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: populationCube(ds.Neighborhoods)}},
	}
	if withOverlay {
		refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
		var pairs []overlay.Pair
		for name, kind := range kinds {
			if name == "Ln" {
				continue
			}
			pairs = append(pairs, overlay.Pair{A: refN, B: overlay.Ref{Layer: name, Kind: kind}})
		}
		ov, err := overlay.Precompute(baseCtx, layers, pairs)
		if err != nil {
			return nil, err
		}
		sys.Overlay = ov
	}
	return sys, nil
}

// buildSystem wires a Piet-QL system over either the paper scenario
// or a synthetic city.
func buildSystem(useCity bool, grid, objects int, seed int64, withOverlay bool) (*pietql.System, error) {
	if !useCity {
		s := scenario.New()
		sys := &pietql.System{
			Ctx: s.Ctx, Engine: s.Engine,
			Kinds: map[string]layer.Kind{
				"Ln": layer.KindPolygon, "Lr": layer.KindPolyline,
				"Ls": layer.KindNode, "Lstores": layer.KindNode, "Lh": layer.KindPolyline,
			},
			SchemaName: "PietSchema",
			Cubes:      mdx.Catalog{},
		}
		sys.Cubes["CityCube"] = &mdx.Cube{Name: "CityCube", Fact: populationCube(s.Neighborhoods)}
		if withOverlay {
			ov, err := overlay.Precompute(baseCtx, map[string]*layer.Layer{
				"Ln": s.Ln, "Lr": s.Lr, "Ls": s.Ls, "Lstores": s.Lstores, "Lh": s.Lh,
			}, defaultPairs())
			if err != nil {
				return nil, err
			}
			sys.Overlay = ov
		}
		return sys, nil
	}

	city := workload.GenCity(workload.CityConfig{Seed: seed, Cols: grid, Rows: grid})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: seed, Objects: objects})
	var ctx *fo.Context
	var eng *core.Engine
	ctx, eng = city.Context(fm)
	sys := &pietql.System{
		Ctx: ctx, Engine: eng,
		Kinds: map[string]layer.Kind{
			"Ln": layer.KindPolygon, "Lr": layer.KindPolyline,
			"Ls": layer.KindNode, "Lstores": layer.KindNode, "Lh": layer.KindPolyline,
		},
		SchemaName: "PietSchema",
		Cubes:      mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: populationCube(city.Neighborhoods)}},
	}
	if withOverlay {
		ov, err := overlay.Precompute(baseCtx, city.Layers(), defaultPairs())
		if err != nil {
			return nil, err
		}
		sys.Overlay = ov
	}
	return sys, nil
}

func defaultPairs() []overlay.Pair {
	refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
	return []overlay.Pair{
		{A: refN, B: overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}},
		{A: refN, B: overlay.Ref{Layer: "Lstores", Kind: layer.KindNode}},
		{A: refN, B: overlay.Ref{Layer: "Ls", Kind: layer.KindNode}},
		{A: refN, B: overlay.Ref{Layer: "Lh", Kind: layer.KindPolyline}},
	}
}

func populationCube(dim *olap.Dimension) *olap.FactTable {
	ft := olap.NewFactTable(olap.FactSchema{
		Dims:     []olap.DimCol{{Name: "place", Dimension: dim, Level: "neighborhood"}},
		Measures: []string{"population", "income"},
	})
	for _, m := range dim.Members("neighborhood") {
		pop, inc := 0.0, 0.0
		if v, ok := dim.Attr("neighborhood", m, "population"); ok {
			pop, _ = v.Num()
		}
		if v, ok := dim.Attr("neighborhood", m, "income"); ok {
			inc, _ = v.Num()
		}
		ft.MustAdd([]olap.Member{m}, []float64{pop, inc})
	}
	return ft
}
