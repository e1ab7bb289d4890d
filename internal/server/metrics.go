package server

import "mogis/internal/obs"

// The server's obs metric names. Constants so moglint's metricname
// analyzer can check shape and repo-wide uniqueness.
const (
	metricRequestsTotal     = "mogis_server_requests_total"
	metricAdmissionQueued   = "mogis_server_admission_queued_total"
	metricAdmissionShed     = "mogis_server_admission_shed_total"
	metricAcceptFaults      = "mogis_server_accept_faults_total"
	metricHandlerPanics     = "mogis_server_handler_panics_total"
	metricIngestRows        = "mogis_server_ingest_rows_total"
	metricIngestRejected    = "mogis_server_ingest_rejected_total"
	metricEventsPublished   = "mogis_server_events_published_total"
	metricEventsDropped     = "mogis_server_events_dropped_total"
	metricSubscriberLags    = "mogis_server_subscriber_lags_total"
	metricSubscriberStalls  = "mogis_server_subscriber_stalls_total"
	metricSubscribersGauge  = "mogis_server_subscribers"
	metricDrainSeconds      = "mogis_server_drain_seconds"
	metricShutdownFaults    = "mogis_server_shutdown_faults_total"
	metricWriteFaults       = "mogis_server_write_faults_total"
	metricRequestsShedDrain = "mogis_server_drain_rejections_total"
)

// serverMetrics bundles the front door's instruments, resolved against
// one obs registry (obs.Default unless injected for a test).
type serverMetrics struct {
	requests        *obs.Counter // requests accepted into a handler
	admissionQueued *obs.Counter // requests that waited in the admission queue
	admissionShed   *obs.Counter // requests shed with 429/503 by admission
	acceptFaults    *obs.Counter // injected accept failures absorbed by the listener
	handlerPanics   *obs.Counter // panics recovered at the handler boundary
	ingestRows      *obs.Counter // position updates applied by /ingest
	ingestRejected  *obs.Counter // batches refused for breaking the MOFT's function rule
	eventsPublished *obs.Counter // geofence events fanned out to subscribers
	eventsDropped   *obs.Counter // events dropped by the slow-consumer policy
	subscriberLags  *obs.Counter // lagged notifications sent to slow consumers
	subscriberStall *obs.Counter // subscribers disconnected past the stall deadline
	subscribers     *obs.Gauge   // currently connected SSE subscribers
	drainSeconds    *obs.Histogram
	shutdownFaults  *obs.Counter // injected faults absorbed by the drain sequence
	writeFaults     *obs.Counter // injected mid-write failures surfaced to clients
	drainRejections *obs.Counter // requests rejected because the server is draining
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests:        reg.Counter(metricRequestsTotal, "requests accepted into a mogisd handler"),
		admissionQueued: reg.Counter(metricAdmissionQueued, "requests that waited in the admission queue"),
		admissionShed:   reg.Counter(metricAdmissionShed, "requests shed by admission control (429/503)"),
		acceptFaults:    reg.Counter(metricAcceptFaults, "injected accept failures absorbed by the listener"),
		handlerPanics:   reg.Counter(metricHandlerPanics, "panics recovered at the handler boundary"),
		ingestRows:      reg.Counter(metricIngestRows, "position updates applied by /ingest"),
		ingestRejected:  reg.Counter(metricIngestRejected, "ingest batches rejected with 422 (conflicting_sample, out_of_order)"),
		eventsPublished: reg.Counter(metricEventsPublished, "geofence events fanned out to subscribers"),
		eventsDropped:   reg.Counter(metricEventsDropped, "events dropped by the slow-consumer policy"),
		subscriberLags:  reg.Counter(metricSubscriberLags, "lagged notifications sent to slow consumers"),
		subscriberStall: reg.Counter(metricSubscriberStalls, "subscribers disconnected past the stall deadline"),
		subscribers:     reg.Gauge(metricSubscribersGauge, "currently connected SSE subscribers"),
		drainSeconds:    reg.Histogram(metricDrainSeconds, "graceful shutdown drain duration", nil),
		shutdownFaults:  reg.Counter(metricShutdownFaults, "injected faults absorbed by the drain sequence"),
		writeFaults:     reg.Counter(metricWriteFaults, "injected mid-write failures surfaced to clients"),
		drainRejections: reg.Counter(metricRequestsShedDrain, "requests rejected because the server is draining"),
	}
}
