// Command mogisd serves the moving-object model over HTTP: Piet-QL
// queries, streamed position ingest, a geofence event stream (SSE),
// and the telemetry surface, behind admission control and a graceful
// drain.
//
// Usage:
//
//	mogisd -addr :8080                    # paper scenario, geofence on Ln
//	mogisd -city -grid 12 -objects 500    # synthetic city
//	mogisd -max-in-flight 32 -max-queue 64 -queue-wait 1s
//	mogisd -query-log queries.jsonl -v
//
//	curl -s localhost:8080/query -d 'SELECT layer.Ln; FROM PietSchema;'
//	curl -s 'localhost:8080/ingest?table=FMbus' --data-binary $'7,95,3.0,0.5\n'
//	curl -N 'localhost:8080/events?max_events=10'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops
// admitting, SSE subscribers get a shutdown event, in-flight requests
// finish within -drain-budget, stragglers are hard-closed.
//
// Exit codes: 0 clean shutdown, 1 setup error, 4 unclean drain (the
// budget expired with work still in flight).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mogis/internal/obs"
	"mogis/internal/server"
	"mogis/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	useCity := flag.Bool("city", false, "serve a generated synthetic city instead of the paper scenario")
	grid := flag.Int("grid", 8, "synthetic city grid dimension")
	objects := flag.Int("objects", 100, "synthetic moving objects")
	seed := flag.Int64("seed", 1, "synthetic generator seed")
	noOverlay := flag.Bool("no-overlay", false, "disable the precomputed overlay (naive geometry)")
	geofence := flag.String("geofence-layer", "Ln", "polygon layer watched by /events; empty disables the stream")

	maxInFlight := flag.Int("max-in-flight", 64, "concurrent admitted requests")
	maxQueue := flag.Int("max-queue", 128, "admission wait-queue size; overflow is shed with 429")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max admission-queue wait; exceeding it sheds with 503")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "default /query deadline when the request brings none (0 = unbounded)")
	subQueue := flag.Int("subscriber-queue", 64, "per-subscriber event queue; overflow drops oldest + lagged event")
	maxSubs := flag.Int("max-subscribers", 10000, "concurrent SSE subscribers")
	stall := flag.Duration("stall-deadline", 5*time.Second, "per-write deadline before a stalled subscriber is disconnected")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "SSE keepalive period")
	drainBudget := flag.Duration("drain-budget", 10*time.Second, "graceful shutdown budget before stragglers are hard-closed")

	queryLogPath := flag.String("query-log", "", "append the structured JSONL query log to this file (\"-\" for stderr)")
	verbose := flag.Bool("v", false, "log engine events to stderr")
	flag.Parse()

	if *verbose {
		obs.SetLogOutput(os.Stderr)
	}

	// The daemon's signal contract: first SIGINT/SIGTERM starts the
	// graceful drain; stop() restores default delivery so a second
	// signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Telemetry is always on for a daemon — /metrics and /debug/* are
	// part of the served surface, not an opt-in.
	telCfg := telemetry.Config{}
	switch *queryLogPath {
	case "":
	case "-":
		telCfg.LogWriter = os.Stderr
	default:
		f, err := os.OpenFile(*queryLogPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mogisd: query-log: %v\n", err)
			return 1
		}
		telCfg.LogWriter = f
		defer f.Close()
	}
	tel := telemetry.New(telCfg)
	telemetry.SetDefault(tel)

	sys, err := server.NewSystem(server.SystemConfig{
		City: *useCity, Grid: *grid, Objects: *objects, Seed: *seed,
		Overlay: !*noOverlay, Telemetry: tel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mogisd: %v\n", err)
		return 1
	}

	srv, err := server.New(server.Config{
		System:          sys,
		Telemetry:       tel,
		GeofenceLayer:   *geofence,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		QueryTimeout:    *queryTimeout,
		SubscriberQueue: *subQueue,
		MaxSubscribers:  *maxSubs,
		StallDeadline:   *stall,
		Heartbeat:       *heartbeat,
		DrainBudget:     *drainBudget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mogisd: %v\n", err)
		return 1
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "mogisd: %v\n", err)
		return 1
	}
	table := "FMbus"
	if *useCity {
		table = "FM"
	}
	fmt.Fprintf(os.Stderr, "mogisd: serving table %s on http://%s (POST /query, POST /ingest, GET /events, GET /metrics)\n", table, srv.Addr())

	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "mogisd: draining...")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "mogisd: drain: %v\n", err)
		return 4
	}
	fmt.Fprintln(os.Stderr, "mogisd: clean shutdown")
	return 0
}
