package fo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mogis/internal/gis"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/traj"
)

// ConceptBinding links an application concept (e.g. "neighb") to a
// level of an application-part OLAP dimension, so formulas can
// enumerate its members (n ∈ neighb) and read their attributes
// (n.income).
type ConceptBinding struct {
	Dim   *olap.Dimension
	Level olap.Level
}

// Context is the model instance formulas evaluate against: the MOFTs,
// the GIS dimension (layers, α, geometric rollups), and the concept
// bindings for application attributes.
type Context struct {
	// tmu guards tables (and the lits entries AddTable drops): the
	// server re-registers a table on ingest while queries resolve it.
	tmu      sync.RWMutex
	tables   map[string]*moft.Table
	gisDim   *gis.Dimension
	concepts map[string]ConceptBinding
	// lits caches per-table interpolated trajectories for InterpFact.
	lits map[string]map[moft.Oid]*traj.LIT
	// tracer, when non-nil, receives one span per evaluation stage of
	// queries run against this context. Atomic: concurrent servers
	// attach/detach sampled tracers while other queries evaluate.
	tracer atomic.Pointer[obs.Tracer]
}

// NewContext creates a context over a GIS dimension instance.
func NewContext(g *gis.Dimension) *Context {
	return &Context{
		tables:   make(map[string]*moft.Table),
		gisDim:   g,
		concepts: make(map[string]ConceptBinding),
	}
}

// AddTable registers a moving-object fact table under its name.
// Re-registering a name drops the cached trajectories for it.
func (c *Context) AddTable(t *moft.Table) *Context {
	c.tmu.Lock()
	c.tables[t.Name()] = t
	delete(c.lits, t.Name())
	c.tmu.Unlock()
	return c
}

// Table resolves a registered MOFT.
func (c *Context) Table(name string) (*moft.Table, error) {
	c.tmu.RLock()
	t, ok := c.tables[name]
	c.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fo: unknown fact table %q", name)
	}
	return t, nil
}

// TableNames lists the registered MOFT names in sorted order.
func (c *Context) TableNames() []string {
	c.tmu.RLock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	c.tmu.RUnlock()
	sort.Strings(names)
	return names
}

// GIS returns the GIS dimension instance.
func (c *Context) GIS() *gis.Dimension { return c.gisDim }

// SetTracer attaches a query trace to the context (nil detaches).
// Evaluation stages — formula planning, FO evaluation, trajectory
// interpolation, aggregation — record spans on it. The context holds
// one tracer at a time; concurrent pipelines should claim it with
// CompareAndSwapTracer instead of clobbering an in-flight trace.
func (c *Context) SetTracer(t *obs.Tracer) *Context {
	c.tracer.Store(t)
	return c
}

// CompareAndSwapTracer attaches next only if old is still the current
// tracer, and reports whether it did. Samplers pass (nil, tr) to claim
// an idle context and (tr, nil) to release it, so two concurrent
// sampled queries cannot tear each other's traces.
func (c *Context) CompareAndSwapTracer(old, next *obs.Tracer) bool {
	return c.tracer.CompareAndSwap(old, next)
}

// Tracer returns the attached query trace (nil when tracing is off;
// nil tracers produce no-op spans).
func (c *Context) Tracer() *obs.Tracer { return c.tracer.Load() }

// BindConcept registers a concept name.
func (c *Context) BindConcept(name string, dim *olap.Dimension, level olap.Level) *Context {
	c.concepts[name] = ConceptBinding{Dim: dim, Level: level}
	return c
}

// Concept resolves a concept binding.
func (c *Context) Concept(name string) (ConceptBinding, error) {
	b, ok := c.concepts[name]
	if !ok {
		return ConceptBinding{}, fmt.Errorf("fo: unknown concept %q", name)
	}
	return b, nil
}
