// Package server is mogisd's hardened network front door: a stdlib
// net/http daemon exposing Piet-QL queries (POST /query), streamed
// position ingest (POST /ingest) and a geofence event stream
// (GET /events, Server-Sent Events), alongside the telemetry surface
// (/metrics, /debug/*) on the same mux.
//
// The robustness layer is the point, not an afterthought:
//
//   - Admission control: at most MaxInFlight requests execute; at most
//     MaxQueue more wait, deadline-aware, for at most QueueWait. Excess
//     load is shed with 429/503 + Retry-After, never queued unbounded.
//   - Typed failures: every pipeline error class maps to a documented
//     status code (DESIGN.md §15) — parse 400, eval 422, budget 413/422,
//     deadline 408, client-gone 499, recovered panic 500 with query id.
//   - Panic isolation: a handler panic is recovered at the endpoint
//     boundary, recorded, and cannot take the daemon down.
//   - Graceful shutdown: stop accepting, flush every SSE subscriber a
//     shutdown event, drain in-flight work within DrainBudget, then
//     hard-close stragglers.
//
// The engine serves behind core.Querier, so the server depends only on
// the query surface. Every request produces one telemetry QueryRecord
// (ops http_query / http_ingest / http_events).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/layer"
	"mogis/internal/obs"
	"mogis/internal/pietql"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/telemetry/telhttp"
)

// The server's telemetry op names, one per endpoint.
const (
	opHTTPQuery  = "http_query"
	opHTTPIngest = "http_ingest"
	opHTTPEvents = "http_events"
)

// OutcomeShed is the telemetry outcome for requests rejected by
// admission control or the draining gate before any work ran.
const OutcomeShed = telemetry.Outcome("shed")

// Config assembles a Server. Zero values select the documented
// defaults; System is the only required field.
type Config struct {
	// System runs the Piet-QL pipeline and its Engine.
	System *pietql.System
	// Telemetry receives one QueryRecord per request; nil falls back
	// to telemetry.Default().
	Telemetry *telemetry.Collector
	// Registry receives the server's obs metrics (nil = obs.Default).
	Registry *obs.Registry

	// GeofenceLayer names the polygon layer /events watches; ""
	// disables the event stream (404 no_geofence_layer).
	GeofenceLayer string

	// Admission control.
	MaxInFlight int           // concurrent admitted requests (default 64)
	MaxQueue    int           // bounded wait queue (default 128)
	QueueWait   time.Duration // max queue wait (default 2s)
	RetryAfter  time.Duration // Retry-After hint on 429/503 (default 1s)

	// QueryTimeout bounds /query requests that bring no timeout of
	// their own (0 = unbounded).
	QueryTimeout time.Duration

	// Subscriber policy.
	SubscriberQueue int           // per-client event queue (default 64)
	MaxSubscribers  int           // concurrent SSE clients (default 10000)
	StallDeadline   time.Duration // per-write deadline (default 5s)
	Heartbeat       time.Duration // SSE keepalive period (default 15s)

	// DrainBudget bounds graceful shutdown before stragglers are
	// hard-closed (default 10s; a Shutdown ctx deadline wins if sooner).
	DrainBudget time.Duration

	// Listener hardening.
	ReadHeaderTimeout time.Duration // default 5s
	WriteTimeout      time.Duration // default 30s (SSE writes override per-write)
	MaxHeaderBytes    int           // default 1 MiB
}

// Server is one mogisd instance: mux, admission gate, geofence hub and
// the drain machinery.
type Server struct {
	cfg Config
	sys *pietql.System
	tel *telemetry.Collector
	met *serverMetrics
	adm *admission
	hub *hub
	mux *http.ServeMux

	// ingestMu serializes copy-on-write table replacement per batch.
	ingestMu sync.Mutex

	nextID   atomic.Uint64
	draining atomic.Bool

	srv  *http.Server
	ln   net.Listener
	addr string
}

// New assembles a Server from cfg. It does not listen; call Start, or
// mount Handler on a listener of your own.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, errors.New("server: Config.System is required")
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Default()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	} else if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DrainBudget <= 0 {
		cfg.DrainBudget = 10 * time.Second
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.MaxHeaderBytes <= 0 {
		cfg.MaxHeaderBytes = 1 << 20
	}

	s := &Server{
		cfg: cfg,
		sys: cfg.System,
		tel: tel,
		met: newServerMetrics(reg),
	}
	s.adm = newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, s.met)

	if cfg.GeofenceLayer != "" {
		lyr, ok := cfg.System.Ctx.GIS().Layer(cfg.GeofenceLayer)
		if !ok {
			return nil, fmt.Errorf("server: geofence layer %q not in the GIS dimension", cfg.GeofenceLayer)
		}
		if lyr.Count(layer.KindPolygon) == 0 {
			return nil, fmt.Errorf("server: geofence layer %q has no polygons", cfg.GeofenceLayer)
		}
		s.hub = newHub(cfg.GeofenceLayer, lyr, cfg.SubscriberQueue, cfg.MaxSubscribers, s.met)
	}

	mux := http.NewServeMux()
	mux.Handle("POST /query", s.endpoint(opHTTPQuery, true, (*Server).handleQuery))
	mux.Handle("POST /ingest", s.endpoint(opHTTPIngest, true, (*Server).handleIngest))
	// /events is capped by MaxSubscribers, not admission: a long-lived
	// stream parked in an admission slot would starve queries.
	mux.Handle("GET /events", s.endpoint(opHTTPEvents, false, (*Server).handleEvents))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Everything else — /metrics, /debug/stats, /debug/queries,
	// /debug/traces, /debug/vars — is the telemetry surface.
	mux.Handle("/", telhttp.Handler(tel))
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's full mux (endpoints + telemetry).
func (s *Server) Handler() http.Handler { return s.mux }

// Hub exposes the subscriber count for health checks and tests.
func (s *Server) Subscribers() int {
	if s.hub == nil {
		return 0
	}
	return s.hub.subscriberCount()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Addr returns the bound address after Start (":0" resolved).
func (s *Server) Addr() string { return s.addr }

// handlerFunc is one endpoint body; id is the request's query id,
// echoed in error bodies and panic records.
type handlerFunc func(s *Server, w http.ResponseWriter, r *http.Request, id uint64) error

// errorResponse is the JSON error body every endpoint shares.
type errorResponse struct {
	ID    uint64 `json:"id"`
	Code  string `json:"code"`
	Error string `json:"error"`
}

// endpoint wraps a handler body with the robustness layer: draining
// gate, admission, panic isolation, typed-error rendering and exactly
// one telemetry record per request.
func (s *Server) endpoint(op string, admit bool, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.nextID.Add(1)
		start := time.Now()

		if s.draining.Load() {
			s.met.drainRejections.Inc()
			s.writeError(w, r, id, errDraining)
			s.record(op, r, start, errDraining, OutcomeShed)
			return
		}
		if admit {
			if err := s.adm.acquire(r.Context()); err != nil {
				s.writeError(w, r, id, err)
				s.record(op, r, start, err, OutcomeShed)
				return
			}
			defer s.adm.release()
		}

		s.met.requests.Inc()
		rw := &respWriter{ResponseWriter: w}
		err, panicked := s.invoke(h, rw, r, id)
		// Snapshot before rendering the error: writeError marks the
		// response started, but that write is complete and well-formed.
		handlerWrote := rw.wrote
		if err != nil && !handlerWrote {
			s.writeError(rw, r, id, err)
		}
		s.record(op, r, start, err, "")
		if panicked && handlerWrote {
			// The response is already partially on the wire; the only
			// honest signal left is killing the connection.
			panic(http.ErrAbortHandler)
		}
	})
}

// invoke runs the handler body with panic isolation. A recovered panic
// becomes a typed qerr panic error carrying the query id, so the 500
// body and the telemetry record both name the failed request.
func (s *Server) invoke(h handlerFunc, w http.ResponseWriter, r *http.Request, id uint64) (err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.met.handlerPanics.Inc()
			err = qerr.NewPanic(fmt.Sprintf("server/handler query %d", id), v)
			panicked = true
		}
	}()
	return h(s, w, r, id), false
}

// writeError renders err's typed status + JSON body. Load-shedding
// statuses carry Retry-After so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, id uint64, err error) {
	status, code := statusFor(r, err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	_ = writeJSON(w, status, errorResponse{ID: id, Code: code, Error: err.Error()})
}

// record emits the request's QueryRecord. forced overrides the
// error-derived outcome (used for shed requests, which never ran).
func (s *Server) record(op string, r *http.Request, start time.Time, err error, forced telemetry.Outcome) {
	if !s.tel.Enabled() {
		return
	}
	rec := telemetry.QueryRecord{
		Op:       op,
		Table:    r.URL.Query().Get("table"),
		Start:    start,
		Duration: time.Since(start),
		Outcome:  outcomeOf(err),
	}
	if forced != "" {
		rec.Outcome = forced
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.tel.Record(rec)
}

// outcomeOf is telemetry.OutcomeOf plus the one HTTP-only case: a
// request rejected with a 4xx before it reached the pipeline counts as
// a parse error.
func outcomeOf(err error) telemetry.Outcome {
	var he *httpError
	if errors.As(err, &he) && he.status < http.StatusInternalServerError {
		return telemetry.OutcomeParseError
	}
	return telemetry.OutcomeOf(err)
}

// handleHealthz reports liveness plus the load-relevant gauges.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	_ = writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"in_flight":   s.adm.inFlight(),
		"queued":      s.adm.queued(),
		"subscribers": s.Subscribers(),
	})
}

// respWriter tracks whether the response has started, so the endpoint
// wrapper knows if a typed error body is still possible. Unwrap keeps
// http.ResponseController (per-write deadlines, flush) working.
type respWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *respWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// faultListener wraps the accept loop with the server/accept chaos
// site. Injected faults are absorbed — counted, briefly backed off,
// retried — because http.Server.Serve treats accept errors as fatal
// and a chaos probe must not take the listener down.
type faultListener struct {
	net.Listener
	met *serverMetrics
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		if err := hitRecovered(faultpoint.ServerAccept); err != nil {
			l.met.acceptFaults.Inc()
			time.Sleep(time.Millisecond)
			continue
		}
		return l.Listener.Accept()
	}
}

// hitRecovered fires a faultpoint, converting a panic-mode injection
// into an error so infrastructure loops (accept, shutdown) can absorb
// every mode instead of crashing the daemon.
func hitRecovered(site string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = qerr.NewPanic(site, v)
		}
	}()
	return faultpoint.Hit(site)
}

// Start listens on addr and serves in the background until Shutdown.
// The http.Server is hardened: header-read and write timeouts plus a
// header-size cap, so a slowloris peer cannot park a connection
// forever (SSE streams extend their own write deadlines per write).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = &faultListener{Listener: ln, met: s.met}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		MaxHeaderBytes:    s.cfg.MaxHeaderBytes,
	}
	// The accept loop lives until Shutdown/Close stops the listener;
	// Serve's return value is the ErrServerClosed it reports then.
	go func() { _ = s.srv.Serve(s.ln) }() //moglint:detached
	return nil
}

// Shutdown drains the daemon: flip the draining gate (new work is
// rejected 503), fire the server/shutdown chaos site (faults are
// absorbed — drain must proceed), wake every SSE subscriber with a
// shutdown event, then drain in-flight requests within the budget.
// Stragglers past the budget are hard-closed. Idempotent; the first
// caller does the work.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	start := time.Now()
	if err := hitRecovered(faultpoint.ServerShutdown); err != nil {
		s.met.shutdownFaults.Inc()
	}
	if s.hub != nil {
		s.hub.close()
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainBudget)
		defer cancel()
	}
	var err error
	if s.srv != nil {
		err = s.srv.Shutdown(ctx)
		if err != nil {
			// Budget exhausted with requests still in flight: hard-close.
			closeErr := s.srv.Close()
			err = fmt.Errorf("server: drain budget exceeded, hard-closed: %w", errors.Join(err, closeErr))
		}
	}
	if s.hub != nil && !s.awaitSubscribers(s.cfg.DrainBudget) {
		err = errors.Join(err, errors.New("server: subscribers still draining past budget"))
	}
	s.met.drainSeconds.Observe(time.Since(start).Seconds())
	return err
}

// awaitSubscribers waits (bounded) for every subscriber handler to
// observe the drain signal and exit.
func (s *Server) awaitSubscribers(d time.Duration) bool {
	done := make(chan struct{})
	go func() { s.hub.drainWG.Wait(); close(done) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
