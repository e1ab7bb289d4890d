package moft

import (
	"context"
	"math/bits"
	"sync"

	"mogis/internal/geom"
	"mogis/internal/obs"
	"mogis/internal/timedim"
)

// Columns is a struct-of-arrays snapshot of a Table: the (Oid, t)
// sorted tuples decomposed into flat, parallel column slices. Hot
// loops (grid builds, polygon-aggregate scans, trajectory
// interpolation builds) stream T/X/Y sequentially instead of
// pointer-chasing Tuple structs, which keeps them bound by memory
// bandwidth rather than cache misses. A snapshot is immutable and
// belongs to one table version, built on first use; a version derived
// by WithAppended has none until someone asks for it.
type Columns struct {
	// Oids lists the distinct object identifiers in ascending order;
	// object i owns rows [Starts[i], Starts[i+1]).
	Oids []Oid
	// Starts has len(Oids)+1 entries delimiting per-object row ranges.
	Starts []int32
	// Obj holds, per row, the ordinal of its object in Oids, so
	// row-order scans can attribute samples without a search.
	Obj []int32
	// T, X, Y are the per-row instant and coordinates, in (Oid, t)
	// order.
	T []int64
	X []float64
	Y []float64

	box        geom.BBox
	minT, maxT int64

	tonce sync.Once
	tperm []int32
}

// Len returns the number of rows (samples).
func (c *Columns) Len() int { return len(c.T) }

// NumObjects returns the number of distinct objects.
func (c *Columns) NumObjects() int { return len(c.Oids) }

// ObjectRange returns the row range [lo, hi) of the i-th object.
func (c *Columns) ObjectRange(i int) (lo, hi int) {
	return int(c.Starts[i]), int(c.Starts[i+1])
}

// BBox returns the spatial bounding box of all rows, computed once at
// build time.
func (c *Columns) BBox() geom.BBox { return c.box }

// TimeSpan returns the minimum and maximum instants present, with
// ok=false for an empty snapshot.
func (c *Columns) TimeSpan() (lo, hi timedim.Instant, ok bool) {
	if len(c.T) == 0 {
		return 0, 0, false
	}
	return timedim.Instant(c.minT), timedim.Instant(c.maxT), true
}

// TimeOrder returns the row indices sorted by (instant, row) — a
// stable time ordering of the whole snapshot. It is built once on
// first use and shared between callers, so the returned slice must
// not be mutated. It lives inside the snapshot, so it belongs to the
// same table version: grid builds of that version share it, and
// loading rows in place discards it with the snapshot.
func (c *Columns) TimeOrder() []int32 {
	c.tonce.Do(func() {
		c.tperm = radixTimeOrder(c.T, c.minT, c.maxT)
		obs.Std.MOFTTimeOrders.Inc()
	})
	return c.tperm
}

// radixTimeOrder sorts the row indices of ts by (instant, row): a
// stable LSD counting sort on the offset t − minT, 16 bits per pass,
// with no pass for digits above the span maxT − minT. Rows start in
// index order and every pass is stable, so equal instants keep it.
func radixTimeOrder(ts []int64, minT, maxT int64) []int32 {
	p := make([]int32, len(ts))
	for i := range p {
		p[i] = int32(i)
	}
	// The span in unsigned arithmetic, exact even past MaxInt64.
	span := uint64(maxT) - uint64(minT)
	if len(ts) < 2 || span == 0 {
		return p
	}
	const digit = 16
	keys := make([]uint64, len(ts))
	for i, t := range ts {
		keys[i] = uint64(t) - uint64(minT)
	}
	p2 := make([]int32, len(ts))
	keys2 := make([]uint64, len(ts))
	count := make([]int32, 1<<digit)
	for shift := 0; shift < bits.Len64(span); shift += digit {
		clear(count)
		for _, k := range keys {
			count[(k>>shift)&(1<<digit-1)]++
		}
		sum := int32(0)
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		for i, k := range keys {
			d := (k >> shift) & (1<<digit - 1)
			j := count[d]
			count[d]++
			p2[j], keys2[j] = p[i], k
		}
		p, p2 = p2, p
		keys, keys2 = keys2, keys
	}
	return p
}

// Columns returns the columnar snapshot of the table version,
// building it in O(table) on first use (and again on the first use
// after rows are loaded in place). The snapshot is shared and must not
// be mutated; concurrent readers are safe once loading has finished
// (the build is double-checked behind the table's mutex, like the
// lazy sort).
func (t *Table) Columns() *Columns {
	c, _ := t.ColumnsCtx(context.Background())
	return c
}

// ColumnsCtx is Columns with cooperative cancellation: a build
// abandoned mid-loop returns the context's error and publishes
// nothing, so the next caller rebuilds from scratch. A snapshot that
// is already published is returned without consulting ctx.
func (t *Table) ColumnsCtx(ctx context.Context) (*Columns, error) {
	if c := t.cols.Load(); c != nil {
		return c, nil
	}
	t.ensureSorted()
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cols.Load(); c != nil {
		return c, nil
	}
	c, err := buildColumns(ctx, t.runs, t.n)
	if err != nil {
		return nil, err
	}
	t.cols.Store(c)
	return c, nil
}

// buildColumns decomposes n rows held in (Oid-sorted, time-sorted)
// runs into column slices, observing ctx every few thousand rows.
func buildColumns(ctx context.Context, runs []objRun, n int) (*Columns, error) {
	c := &Columns{
		Oids:   make([]Oid, len(runs)),
		Starts: make([]int32, len(runs)+1),
		Obj:    make([]int32, n),
		T:      make([]int64, n),
		X:      make([]float64, n),
		Y:      make([]float64, n),
		box:    geom.EmptyBBox(),
	}
	i := 0
	for k, r := range runs {
		c.Oids[k] = r.oid
		c.Starts[k] = int32(i)
		for _, tp := range r.rows {
			if i%4096 == 4095 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			c.Obj[i] = int32(k)
			c.T[i] = int64(tp.T)
			c.X[i] = tp.X
			c.Y[i] = tp.Y
			if i == 0 || c.T[i] < c.minT {
				c.minT = c.T[i]
			}
			if i == 0 || c.T[i] > c.maxT {
				c.maxT = c.T[i]
			}
			c.box = c.box.ExtendPoint(geom.Pt(tp.X, tp.Y))
			i++
		}
	}
	c.Starts[len(runs)] = int32(n)
	return c, nil
}
