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

// IntervalMap returns the interval cache's map for pg in the table's
// current cache entry, with settled=false when the entry is absent or
// still has pending objects.
func IntervalMap(e *Engine, table string, pg geom.Polygon) (m map[moft.Oid][]traj.TimeInterval, settled bool) {
	e.mu.RLock()
	tc := e.litCache[table]
	e.mu.RUnlock()
	if tc == nil {
		return nil, false
	}
	tc.imu.RLock()
	en := tc.intervals[polygonKey(pg)]
	tc.imu.RUnlock()
	if en == nil {
		return nil, false
	}
	st := en.state.Load()
	return st.m, len(st.pending) == 0
}
