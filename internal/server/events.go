package server

import (
	"sync"
	"sync/atomic"

	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// Event is one geofence notification pushed over /events. Enter/leave
// events are computed against the configured polygon layer as objects
// move; lagged events tell a slow consumer how many events the
// drop-oldest policy discarded; the shutdown event is the last thing a
// draining server sends before closing the stream.
type Event struct {
	// Type is "enter", "leave", "lagged", "shutdown" or the
	// stream-opening "hello".
	Type string `json:"type"`
	// Table and Oid identify the moving object (enter/leave only).
	Table string   `json:"table,omitempty"`
	Oid   moft.Oid `json:"oid,omitempty"`
	// Zone is the geofence polygon's id in the configured layer.
	Zone layer.Gid `json:"zone,omitempty"`
	// T, X, Y are the position update that triggered the transition.
	T timedim.Instant `json:"t,omitempty"`
	X float64         `json:"x,omitempty"`
	Y float64         `json:"y,omitempty"`
	// Seq is the hub-wide publication sequence number; a gap visible
	// to a client matches a preceding lagged event.
	Seq uint64 `json:"seq,omitempty"`
	// Dropped counts the events discarded before a lagged event.
	Dropped int `json:"dropped,omitempty"`
}

// subscriber is one connected /events client: a bounded FIFO of
// pending events plus a wake signal for the flush loop. Overflow
// drops the oldest pending event and accumulates the dropped count,
// which the flush loop converts into one lagged event — the
// drop-oldest half of the slow-consumer policy. (The disconnect half
// lives in the handler: a write blocked past the stall deadline
// fails and tears the subscription down.)
type subscriber struct {
	id  uint64
	cap int

	mu      sync.Mutex
	queue   []Event
	dropped int

	// wake has capacity 1: pushes never block on a slow flush loop.
	wake chan struct{}
}

// push appends ev, applying drop-oldest on overflow. Never blocks.
func (s *subscriber) push(ev Event) (dropped bool) {
	s.mu.Lock()
	if len(s.queue) >= s.cap {
		s.queue = s.queue[1:]
		s.dropped++
		dropped = true
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return dropped
}

// drain takes every pending event plus the dropped count accumulated
// since the last drain.
func (s *subscriber) drain() ([]Event, int) {
	s.mu.Lock()
	evs := s.queue
	d := s.dropped
	s.queue = nil
	s.dropped = 0
	s.mu.Unlock()
	return evs, d
}

// hub tracks which geofence polygons each moving object is currently
// inside and fans enter/leave transitions out to every subscriber.
// One hub serves one polygon layer; the per-object containment state
// is keyed by (table, oid).
type hub struct {
	layerName string
	lyr       *layer.Layer
	queueCap  int
	maxSubs   int
	met       *serverMetrics

	mu     sync.Mutex
	subs   map[uint64]*subscriber
	nextID uint64
	state  map[string]map[moft.Oid][]layer.Gid

	seq atomic.Uint64

	// closed is signalled once at drain start; subscriber handlers
	// flush a shutdown event and exit, then drainWG goes to zero.
	closed    chan struct{}
	closeOnce sync.Once
	// drainWG joins every subscriber handler; Server.Shutdown waits on
	// it (bounded by the drain budget) after signalling closed.
	drainWG sync.WaitGroup
}

func newHub(layerName string, lyr *layer.Layer, queueCap, maxSubs int, met *serverMetrics) *hub {
	if queueCap < 1 {
		queueCap = 64
	}
	if maxSubs < 1 {
		maxSubs = 10000
	}
	return &hub{
		layerName: layerName,
		lyr:       lyr,
		queueCap:  queueCap,
		maxSubs:   maxSubs,
		met:       met,
		subs:      make(map[uint64]*subscriber),
		state:     make(map[string]map[moft.Oid][]layer.Gid),
		closed:    make(chan struct{}),
	}
}

// subscribe registers a new client and joins it to the drain group.
// The caller must pair it with unsubscribe.
func (h *hub) subscribe() (*subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.closed:
		return nil, errDraining
	default:
	}
	if len(h.subs) >= h.maxSubs {
		return nil, errSubsAtLimit
	}
	h.nextID++
	s := &subscriber{
		id:   h.nextID,
		cap:  h.queueCap,
		wake: make(chan struct{}, 1),
	}
	h.subs[s.id] = s
	h.drainWG.Add(1)
	h.met.subscribers.Set(int64(len(h.subs)))
	return s, nil
}

// unsubscribe removes the client and releases its drain slot.
// Idempotent per subscriber is NOT required: the handler calls it
// exactly once on exit.
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s.id)
	h.met.subscribers.Set(int64(len(h.subs)))
	h.mu.Unlock()
	h.drainWG.Done()
}

// close signals drain: subscribers observe it, flush a shutdown event
// and exit. Safe to call more than once.
func (h *hub) close() {
	h.closeOnce.Do(func() { close(h.closed) })
}

// subscriberCount reports the connected client count.
func (h *hub) subscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// observe folds one applied row into the containment state and
// publishes the enter/leave transitions it causes. Returns the number
// of events published. An object the hub holds no state for — its
// first row since the server started — is seeded from its last sample
// in from, the table version the batch derived from, so a loaded
// object already inside a zone does not enter it again. Calls are
// serialized per ingest batch by the caller; the hub lock orders
// concurrent batches.
func (h *hub) observe(table string, from *moft.Table, tp moft.Tuple) int {
	zones := h.lyr.PolygonsContaining(geom.Pt(tp.X, tp.Y))

	h.mu.Lock()
	defer h.mu.Unlock()
	tbl := h.state[table]
	if tbl == nil {
		tbl = make(map[moft.Oid][]layer.Gid)
		h.state[table] = tbl
	}
	prev, known := tbl[tp.Oid]
	if !known {
		if run := from.ObjectTuples(tp.Oid); len(run) > 0 {
			last := run[len(run)-1]
			prev = h.lyr.PolygonsContaining(geom.Pt(last.X, last.Y))
		}
	}
	entered, left := diffZones(prev, zones)
	if known && len(entered) == 0 && len(left) == 0 {
		return 0
	}
	tbl[tp.Oid] = zones
	n := 0
	for _, z := range left {
		h.publishLocked(Event{Type: "leave", Table: table, Oid: tp.Oid, Zone: z, T: tp.T, X: tp.X, Y: tp.Y})
		n++
	}
	for _, z := range entered {
		h.publishLocked(Event{Type: "enter", Table: table, Oid: tp.Oid, Zone: z, T: tp.T, X: tp.X, Y: tp.Y})
		n++
	}
	return n
}

// publishLocked stamps ev with the next sequence number and pushes it
// to every subscriber. Caller holds h.mu; pushes are non-blocking, so
// a stalled consumer cannot stall the hub.
func (h *hub) publishLocked(ev Event) {
	ev.Seq = h.seq.Add(1)
	h.met.eventsPublished.Inc()
	for _, s := range h.subs {
		if s.push(ev) {
			h.met.eventsDropped.Inc()
		}
	}
}

// diffZones returns the ids present in next but not prev (entered)
// and in prev but not next (left). Both inputs are sorted ascending.
func diffZones(prev, next []layer.Gid) (entered, left []layer.Gid) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			left = append(left, prev[i])
			i++
		default:
			entered = append(entered, next[j])
			j++
		}
	}
	left = append(left, prev[i:]...)
	entered = append(entered, next[j:]...)
	return entered, left
}
