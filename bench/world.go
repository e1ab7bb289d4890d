package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/pietql"
	"mogis/internal/server"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// sizing fixes the synthetic instance every workload runs against.
type sizing struct {
	grid     int // grid×grid Ln polygons
	objects  int
	initial  int // one-minute samples per object loaded before the server starts
	heldBack int // further samples per object kept as the ingest stream
}

var (
	// fullSize is the measured instance: 400 polygons, 400 000 MOFT
	// rows (06:00–07:39) and a 160 000-row ingest stream.
	fullSize = sizing{grid: 20, objects: 4000, initial: 100, heldBack: 40}
	// smokeSize keeps the same time axis (the query windows depend on
	// it) over a city small enough for the test suite.
	smokeSize = sizing{grid: 5, objects: 120, initial: 100, heldBack: 40}
)

const (
	table     = "FM"
	batchRows = 100
	// subscriberQueue is the one mogisd default the harness raises, so
	// that a batch's burst of events is never dropped.
	subscriberQueue = 8192
)

// epoch is the first sample instant of every generated trajectory.
var epoch = timedim.At(2006, 1, 9, 6, 0)

// regionNames orders the region sets; regionGeo holds the geometric
// part that selects each. s5 is the paper's Section-5 query verbatim.
var regionNames = []string{"s5", "school", "river"}

var regionGeo = map[string]string{
	"s5": `SELECT layer.Lr, layer.Ln, layer.Lstores;
FROM PietSchema;
WHERE intersection(layer.Lr, layer.Ln, subplevel.Linestring)
AND (layer.Ln)
CONTAINS (layer.Ln, layer.Lstores, subplevel.Point);
`,
	"school": `SELECT layer.Ln;
FROM PietSchema;
WHERE CONTAINS (layer.Ln, layer.Ls, subplevel.Point);
`,
	"river": `SELECT layer.Ln;
FROM PietSchema;
WHERE intersection(layer.Ln, layer.Lr, subplevel.Linestring);
`,
}

// splitmix64 is the hash behind every seeded choice: sub-seeds and the
// request stream are pure functions of (seed, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, i int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) + uint64(i))
}

// subSeed derives the k-th candidate generator seed (positive, so the
// generators never fall back to their default seed).
func subSeed(seed int64, k int) int64 {
	return int64(mix(seed, k)>>2) + 1
}

// newSystem wires the Piet-QL system the way mogisd does (same
// bootstrap, overlay on) and swaps in the benchmark's own MOFT.
func newSystem(sub int64, size sizing, tel *telemetry.Collector, fm *moft.Table) (*pietql.System, error) {
	sys, err := server.NewSystem(server.SystemConfig{
		City: true, Grid: size.grid, Objects: 1, Seed: sub, Overlay: true, Telemetry: tel,
	})
	if err != nil {
		return nil, fmt.Errorf("bootstrapping city: %w", err)
	}
	if fm != nil {
		sys.Ctx.AddTable(fm)
		sys.Engine.InvalidateTrajectories(table)
	}
	return sys, nil
}

// cityExtent is the bounding box trajectories are generated in.
func cityExtent(sys *pietql.System) (geom.BBox, error) {
	ln, ok := sys.Ctx.GIS().Layer("Ln")
	if !ok {
		return geom.BBox{}, errors.New("city has no Ln layer")
	}
	return ln.BBox(), nil
}

// genRows generates every object's samples and splits them into the
// initial table rows and the rows held back for the ingest stream: a
// continuation of the same trajectories, which orderStream puts in
// time order.
func genRows(sub int64, size sizing, extent geom.BBox) (initial, stream []moft.Tuple) {
	all := workload.GenTrajectories(extent, workload.TrajConfig{
		Seed: sub, Objects: size.objects, Samples: size.initial + size.heldBack,
	})
	cutoff := epoch + timedim.Instant(size.initial*timedim.SecondsPerMinute)
	for _, tp := range all.Tuples() {
		if tp.T < cutoff {
			initial = append(initial, tp)
		} else {
			stream = append(stream, tp)
		}
	}
	return initial, stream
}

// orderStream puts the ingest stream in time order and makes it a
// function of the workload seed: within each minute the objects report
// in a seeded order, so seeds batch the same rows differently without
// changing the work.
func orderStream(stream []moft.Tuple, seed int64) {
	sort.SliceStable(stream, func(i, j int) bool {
		a, b := stream[i], stream[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return mix(seed, int(a.Oid)) < mix(seed, int(b.Oid))
	})
}

func tableOf(rows []moft.Tuple) *moft.Table {
	t := moft.New(table)
	for _, tp := range rows {
		t.AddTuple(tp)
	}
	return t
}

// regionSets evaluates the three geometric parts and returns the Ln
// polygons each selects.
func regionSets(ctx context.Context, sys *pietql.System) (map[string][]layer.Gid, error) {
	out := make(map[string][]layer.Gid, len(regionNames))
	for _, name := range regionNames {
		q, err := pietql.Parse(regionGeo[name])
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", name, err)
		}
		res, err := sys.Eval(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", name, err)
		}
		out[name] = res.GeoIDs["Ln"]
	}
	return out, nil
}

// fenceEvents counts the enter/leave events the hub will publish for
// rows, replaying its rule: an object's zone set is diffed against its
// previous one, starting from empty.
func fenceEvents(ln *layer.Layer, rows []moft.Tuple) int {
	prev := make(map[moft.Oid]map[layer.Gid]bool)
	events := 0
	for _, tp := range rows {
		now := make(map[layer.Gid]bool)
		for _, z := range ln.PolygonsContaining(tp.Point()) {
			now[z] = true
			if !prev[tp.Oid][z] {
				events++
			}
		}
		for z := range prev[tp.Oid] {
			if !now[z] {
				events++
			}
		}
		prev[tp.Oid] = now
	}
	return events
}

// guardRows bounds how much of the ingest stream the seed guard
// replays; no run consumes more.
const guardRows = 40000

// resolveSeed is the seed guard for the city seed: it steps through
// derived sub-seeds until the generated instance supports every
// workload — each region set non-empty, river inside the 256-polygon
// interval cache, and at least one geofence event per two ingested
// rows.
func resolveSeed(ctx context.Context, city int64, size sizing) (sub int64, step int, regions map[string][]layer.Gid, err error) {
	var reasons []string
	for k := 0; k < 32; k++ {
		sub = subSeed(city, k)
		sys, err := newSystem(sub, size, nil, nil)
		if err != nil {
			return 0, 0, nil, err
		}
		if regions, err = regionSets(ctx, sys); err != nil {
			return 0, 0, nil, err
		}
		if reason := regionFault(regions); reason != "" {
			reasons = append(reasons, fmt.Sprintf("sub-seed %d: %s", sub, reason))
			continue
		}
		extent, err := cityExtent(sys)
		if err != nil {
			return 0, 0, nil, err
		}
		_, stream := genRows(sub, size, extent)
		orderStream(stream, 0)
		if len(stream) > guardRows {
			stream = stream[:guardRows]
		}
		ln, _ := sys.Ctx.GIS().Layer("Ln")
		if ev := fenceEvents(ln, stream); 2*ev < len(stream) {
			reasons = append(reasons, fmt.Sprintf("sub-seed %d: %d events for %d rows", sub, ev, len(stream)))
			continue
		}
		return sub, k, regions, nil
	}
	return 0, 0, nil, fmt.Errorf("no usable sub-seed for city seed %d: %v", city, reasons)
}

func regionFault(regions map[string][]layer.Gid) string {
	for _, name := range regionNames {
		if len(regions[name]) == 0 {
			return "region " + name + " is empty"
		}
	}
	if n := len(regions["river"]); n >= 256 {
		return fmt.Sprintf("river selects %d polygons, past the interval cache", n)
	}
	return ""
}

// world is one freshly built instance behind a listening server.
type world struct {
	size    sizing
	sub     int64
	sys     *pietql.System
	srv     *server.Server
	traced  *http.Server // the harness's own listener when tracing, else nil
	base    string
	client  *http.Client
	initial []moft.Tuple // the table as loaded; the oracle's input
	stream  []moft.Tuple
	regions map[string][]layer.Gid
}

// maxConns caps the client side at nproc connections on the 2-core
// host the benchmark is sized for.
const maxConns = 2

// setup generates the instance, precomputes the overlay and starts the
// server with mogisd's defaults. With a tracer it serves through the
// harness's own listener so the handler can be wrapped, and installs
// the engine decorator.
func setup(ctx context.Context, sub, seed int64, size sizing, tr *tracer) (*world, error) {
	tel := telemetry.New(telemetry.Config{})
	telemetry.SetDefault(tel)
	sys, err := newSystem(sub, size, tel, nil)
	if err != nil {
		return nil, err
	}
	extent, err := cityExtent(sys)
	if err != nil {
		return nil, err
	}
	w := &world{size: size, sub: sub, sys: sys}
	w.initial, w.stream = genRows(sub, size, extent)
	orderStream(w.stream, seed)
	sys.Ctx.AddTable(tableOf(w.initial))
	sys.Engine.InvalidateTrajectories(table)
	if w.regions, err = regionSets(ctx, sys); err != nil {
		return nil, err
	}
	if tr != nil {
		sys.Engine = &tracedEngine{Querier: sys.Engine, tr: tr}
	}

	w.srv, err = server.New(server.Config{
		System: sys, Telemetry: tel, GeofenceLayer: "Ln",
		MaxInFlight: 64, MaxQueue: 128, QueueWait: 2 * time.Second,
		QueryTimeout: 30 * time.Second, SubscriberQueue: subscriberQueue,
		MaxSubscribers: 10000, StallDeadline: 5 * time.Second,
		Heartbeat: 15 * time.Second, DrainBudget: 10 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("assembling server: %w", err)
	}
	if tr == nil {
		if err := w.srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		w.base = "http://" + w.srv.Addr()
	} else {
		if w.traced, w.base, err = serve(tr.middleware(w.srv.Handler())); err != nil {
			return nil, err
		}
	}
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}
	return w, nil
}

// serve listens on a free loopback port with mogisd's listener
// timeouts and serves h until the returned server is shut down: it
// lives as long as its world, not as long as the call that set it up.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: 30 * time.Second}
	// Serve returns ErrServerClosed once world.close shuts it down.
	go func() { _ = srv.Serve(ln) }() //moglint:detached
	return srv, "http://" + ln.Addr().String(), nil
}

// close drains the server and drops the client's connections.
func (w *world) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if w.traced != nil {
		err = errors.Join(err, w.traced.Shutdown(ctx))
	}
	w.client.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	return nil
}
