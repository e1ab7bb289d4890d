package fo

import (
	"fmt"
	"sort"
	"sync"

	"mogis/internal/gis"
	"mogis/internal/moft"
	"mogis/internal/olap"
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
// bindings for application attributes. It holds only the model and is
// shared by every query; per-query state (a trace, a budget, a
// deadline) travels in the query's context.Context instead.
type Context struct {
	// tmu guards tables: the server re-registers a table on ingest
	// while queries resolve it.
	tmu      sync.RWMutex
	tables   map[string]*moft.Table
	gisDim   *gis.Dimension
	concepts map[string]ConceptBinding
}

// NewContext creates a context over a GIS dimension instance.
func NewContext(g *gis.Dimension) *Context {
	return &Context{
		tables:   make(map[string]*moft.Table),
		gisDim:   g,
		concepts: make(map[string]ConceptBinding),
	}
}

// AddTable registers a moving-object fact table under its name,
// replacing any table registered under it before.
func (c *Context) AddTable(t *moft.Table) *Context {
	c.tmu.Lock()
	c.tables[t.Name()] = t
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
