package core

import (
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/traj"
)

// WindowHintOps exposes the ops feeding the grid's adaptive
// time-bucket hint to the external tests.
var WindowHintOps = windowHintOps

// CompactDivisor exposes the sample index's compaction bound.
const CompactDivisor = compactDivisor

// IntervalBlock exposes the interval column's block length.
const IntervalBlock = ivBlock

// ClampTotal exposes the per-object window clamp of the duration
// queries, the reference the interval-column readers must match.
var ClampTotal = clampTotal

// IntervalColumn returns the interval cache's column for pg in the
// table's current cache entry, as an opaque value for comparisons,
// with settled=false when the entry is absent or still has pending
// objects.
func IntervalColumn(e *Engine, table string, pg geom.Polygon) (col any, settled bool) {
	st := intervalStates(e, table)[polygonKey(pg)]
	if st == nil {
		return nil, false
	}
	return st.col, len(st.pending) == 0
}

// IntervalColumns returns the settled columns of the interval cache
// in the table's current cache entry, by polygon key.
func IntervalColumns(e *Engine, table string) map[string]any {
	out := map[string]any{}
	for key, st := range intervalStates(e, table) {
		if len(st.pending) == 0 {
			out[key] = st.col
		}
	}
	return out
}

// IntervalMap returns IntervalColumn's entries per object, each
// object's intervals in column order.
func IntervalMap(e *Engine, table string, pg geom.Polygon) (m map[moft.Oid][]traj.TimeInterval, settled bool) {
	st := intervalStates(e, table)[polygonKey(pg)]
	if st == nil {
		return nil, false
	}
	m = map[moft.Oid][]traj.TimeInterval{}
	for _, en := range st.col.ents {
		m[en.oid] = append(m[en.oid], traj.TimeInterval{Lo: en.lo, Hi: en.hi})
	}
	return m, len(st.pending) == 0
}

// polygonKey is pg's interval-cache key as a string.
func polygonKey(pg geom.Polygon) string { return string(appendPolygonKey(nil, pg)) }

// intervalStates returns the interval entries' states in the table's
// current cache entry, by polygon key.
func intervalStates(e *Engine, table string) map[string]*ivState {
	e.mu.RLock()
	tc := e.litCache[table]
	e.mu.RUnlock()
	out := map[string]*ivState{}
	if tc == nil {
		return out
	}
	tc.imu.RLock()
	defer tc.imu.RUnlock()
	for key, en := range tc.intervals {
		out[key] = en.state.Load()
	}
	return out
}
