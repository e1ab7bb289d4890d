// Package faultpoint provides named fault-injection sites for the
// chaos test suite. A site is a call to Hit(name) planted on an
// engine path (cache build, worker fan-out, prefilter, grid build,
// overlay pair). Disarmed — the production state — a site costs one
// atomic load and no branch beyond it; the chaos tests arm sites to
// inject a typed error, a panic, or a delay and then assert the
// engine's invariants (clean typed errors, coherent caches, no
// goroutine leaks, bit-identical retries).
package faultpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The site catalog. Every planted Hit call uses one of these names;
// the chaos suite ranges over Catalog() so a new site cannot be added
// without being exercised.
const (
	// CoreLITBuild fires inside the per-table trajectory (LIT) cache
	// build, before any cache state is published.
	CoreLITBuild = "core/lit-build"
	// CoreGridBuild fires inside the sample index build: a base grid or
	// a tail over an inherited one.
	CoreGridBuild = "core/grid-build"
	// CoreFanoutChunk fires at the start of every worker chunk of the
	// per-object query fan-out.
	CoreFanoutChunk = "core/fanout-chunk"
	// CorePrefilter fires in the spatial-prefilter candidate lookup.
	CorePrefilter = "core/prefilter"
	// CoreIntervalInsert fires just before a computed interval set
	// would be inserted into the interval cache.
	CoreIntervalInsert = "core/interval-insert"
	// OverlayPair fires inside each overlay pair precomputation.
	OverlayPair = "overlay/pair"
	// ServerAccept fires in the mogisd listener's accept path, before
	// the accepted connection is handed to the HTTP server. The accept
	// loop must absorb the fault and keep serving.
	ServerAccept = "server/accept"
	// ServerWrite fires just before a response body write on the query
	// path and before each SSE event write, modelling a mid-write
	// failure to a client.
	ServerWrite = "server/write"
	// ServerSubscriber fires in the SSE subscriber's flush loop; delay
	// mode models a stalled consumer, error/panic a broken one.
	ServerSubscriber = "server/subscriber"
	// ServerShutdown fires at the start of the daemon's drain sequence;
	// shutdown must complete within its budget regardless.
	ServerShutdown = "server/shutdown"
)

// Catalog returns every known site name, in stable order.
func Catalog() []string {
	return []string{
		CoreLITBuild,
		CoreGridBuild,
		CoreFanoutChunk,
		CorePrefilter,
		CoreIntervalInsert,
		OverlayPair,
		ServerAccept,
		ServerWrite,
		ServerSubscriber,
		ServerShutdown,
	}
}

// Mode selects what an armed site injects.
type Mode int

const (
	// ModeError makes Hit return a *Fault error.
	ModeError Mode = iota
	// ModePanic makes Hit panic with a *Fault value.
	ModePanic
	// ModeDelay makes Hit sleep for the armed duration, then return
	// nil (pair it with a deadline to exercise timeouts).
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault is the typed error (and panic value) an armed site injects.
type Fault struct {
	Site string
	Mode Mode
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultpoint: injected %s at %s", f.Mode, f.Site)
}

// IsFault reports whether err originates at an armed site.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

type arming struct {
	mode  Mode
	delay time.Duration
	// remaining > 0 limits the number of firings; < 0 means unlimited.
	remaining int
}

var (
	mu    sync.Mutex
	armed map[string]*arming
	// armedCount mirrors len(armed) so the disarmed fast path in Hit
	// is a single atomic load with no locking.
	armedCount atomic.Int32
)

// Hit is the injection site. Disarmed (the default for every site)
// it returns nil after one atomic load; armed it injects the
// configured fault. Sites on panic-isolated paths surface ModePanic
// as a recovered QueryPanicError, proving the isolation works.
func Hit(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	a, ok := armed[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	if a.remaining > 0 {
		a.remaining--
		if a.remaining == 0 {
			delete(armed, name)
			armedCount.Store(int32(len(armed)))
		}
	}
	mode, delay := a.mode, a.delay
	mu.Unlock()
	switch mode {
	case ModePanic:
		panic(&Fault{Site: name, Mode: ModePanic})
	case ModeDelay:
		time.Sleep(delay)
		return nil
	default:
		return &Fault{Site: name, Mode: ModeError}
	}
}

// Arm arms a site: every Hit on it injects mode until Disarm (or
// Reset). delay is only meaningful for ModeDelay.
func Arm(name string, mode Mode, delay time.Duration) {
	armN(name, mode, delay, -1)
}

// ArmOnce arms a site for exactly n firings, after which it disarms
// itself — useful for proving a retry succeeds after one injected
// failure.
func ArmOnce(name string, mode Mode, delay time.Duration, n int) {
	if n <= 0 {
		n = 1
	}
	armN(name, mode, delay, n)
}

func armN(name string, mode Mode, delay time.Duration, n int) {
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = make(map[string]*arming)
	}
	armed[name] = &arming{mode: mode, delay: delay, remaining: n}
	armedCount.Store(int32(len(armed)))
}

// Disarm disarms one site.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(armed, name)
	armedCount.Store(int32(len(armed)))
}

// Reset disarms every site (test cleanup).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	armedCount.Store(0)
}

// Armed reports whether the site is currently armed.
func Armed(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	_, ok := armed[name]
	return ok
}
