// Package traj implements trajectories and trajectory samples
// (Definitions 5 and 6 of the paper) under the linear-interpolation
// model LIT(S) the paper adopts: between consecutive samples the
// object moves along a straight line at constant (lowest) speed. On
// top of LIT it provides the continuous-time primitives the paper's
// Type 6/7/8 queries need: position at an instant, the time intervals
// spent inside a polygon, passes-through tests, and the time
// intervals within a radius of a point (solved exactly from the
// quadratic distance equation, as in queries Q5 and Q6 of Section 4).
package traj

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mogis/internal/geom"
	"mogis/internal/timedim"
)

// TimePoint is one trajectory sample (t_i, x_i, y_i).
type TimePoint struct {
	T timedim.Instant
	P geom.Point
}

// Sample is a trajectory sample per Definition 6: time-space points
// with strictly increasing timestamps.
type Sample []TimePoint

// Validation errors.
var (
	ErrEmptySample   = errors.New("traj: empty sample")
	ErrUnorderedTime = errors.New("traj: timestamps not strictly increasing")
)

// Validate checks Definition 6's ordering requirement
// t_0 < t_1 < ... < t_N.
func (s Sample) Validate() error {
	if len(s) == 0 {
		return ErrEmptySample
	}
	for i := 1; i < len(s); i++ {
		if s[i].T <= s[i-1].T {
			return fmt.Errorf("%w: index %d", ErrUnorderedTime, i)
		}
	}
	return nil
}

// SampleFromColumns builds a Sample from parallel column slices (one
// instant and coordinate pair per row), the struct-of-arrays layout
// of moft.Columns. The flat slices stream sequentially, so bulk
// trajectory construction over a whole table avoids pointer-chasing
// one Tuple struct per sample.
func SampleFromColumns(ts []int64, xs, ys []float64) Sample {
	s := make(Sample, len(ts))
	for i := range ts {
		s[i] = TimePoint{T: timedim.Instant(ts[i]), P: geom.Pt(xs[i], ys[i])}
	}
	return s
}

// TimeDomain returns the sample's time domain [t_0, t_N].
func (s Sample) TimeDomain() timedim.Interval {
	if len(s) == 0 {
		return timedim.Interval{}
	}
	return timedim.Interval{Lo: s[0].T, Hi: s[len(s)-1].T}
}

// IsClosed reports whether the trajectory is closed per the paper:
// first and last sampled positions coincide.
func (s Sample) IsClosed() bool {
	return len(s) >= 2 && s[0].P.Eq(s[len(s)-1].P)
}

// Image returns the sampled positions.
func (s Sample) Image() []geom.Point {
	out := make([]geom.Point, len(s))
	for i, tp := range s {
		out[i] = tp.P
	}
	return out
}

// AsPolyline returns the interpolated trajectory's spatial image as a
// polyline (the "trajectory as a spatial object" view of query Type
// 6).
func (s Sample) AsPolyline() geom.Polyline {
	return geom.Polyline(s.Image())
}

// BBox returns the spatial bounding box of the sample.
func (s Sample) BBox() geom.BBox { return geom.NewBBox(s.Image()...) }

// Length returns the length of the interpolated trajectory's image.
func (s Sample) Length() float64 { return s.AsPolyline().Length() }

// LIT is the linear-interpolation trajectory of a sample: the unique
// trajectory through the sample points with constant speed on each
// inter-sample segment (Section 3 of the paper).
type LIT struct {
	s Sample
	// box is the spatial bounding box of the sample, computed once at
	// construction so spatial prefilters can test envelope
	// intersection without walking the sample.
	box geom.BBox
}

// NewLIT validates the sample and wraps it as a trajectory.
func NewLIT(s Sample) (*LIT, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &LIT{s: s, box: s.BBox()}, nil
}

// MustLIT is NewLIT that panics on invalid samples; for tests and
// generated data.
func MustLIT(s Sample) *LIT {
	l, err := NewLIT(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Sample returns the underlying sample.
func (l *LIT) Sample() Sample { return l.s }

// BBox returns the cached spatial bounding box of the trajectory's
// image. A trajectory whose box does not intersect a query region's
// box cannot intersect the region itself, which is the basis of the
// engine's spatial prefilter.
func (l *LIT) BBox() geom.BBox { return l.box }

// TimeDomain returns [t_0, t_N].
func (l *LIT) TimeDomain() timedim.Interval { return l.s.TimeDomain() }

// At returns the interpolated position at time t (which may be
// fractional) and ok=false outside the time domain.
func (l *LIT) At(t float64) (geom.Point, bool) {
	s := l.s
	if t < float64(s[0].T) || t > float64(s[len(s)-1].T) {
		return geom.Point{}, false
	}
	// Binary search for the segment with s[i].T <= t <= s[i+1].T.
	i := sort.Search(len(s), func(i int) bool { return float64(s[i].T) >= t })
	if i < len(s) && float64(s[i].T) == t {
		return s[i].P, true
	}
	i-- // now s[i].T < t < s[i+1].T
	a, b := s[i], s[i+1]
	frac := (t - float64(a.T)) / float64(b.T-a.T)
	return a.P.Lerp(b.P, frac), true
}

// AtInstant is At for integral instants.
func (l *LIT) AtInstant(t timedim.Instant) (geom.Point, bool) {
	return l.At(float64(t))
}

// NumLegs returns the number of inter-sample segments.
func (l *LIT) NumLegs() int { return len(l.s) - 1 }

// Leg returns the i-th inter-sample motion: its time interval and
// space segment.
func (l *LIT) Leg(i int) (t0, t1 float64, seg geom.Segment) {
	a, b := l.s[i], l.s[i+1]
	return float64(a.T), float64(b.T), geom.Seg(a.P, b.P)
}

// SpeedOnLeg returns the constant speed on leg i (distance over
// time).
func (l *LIT) SpeedOnLeg(i int) float64 {
	t0, t1, seg := l.Leg(i)
	return seg.Length() / (t1 - t0)
}

// MaxSpeed returns the maximum leg speed (0 for single-point
// samples).
func (l *LIT) MaxSpeed() float64 {
	var v float64
	for i := 0; i < l.NumLegs(); i++ {
		if s := l.SpeedOnLeg(i); s > v {
			v = s
		}
	}
	return v
}

// TimeInterval is a continuous closed time interval with fractional
// endpoints (interpolation produces non-integral crossing times).
type TimeInterval struct {
	Lo, Hi float64
}

// Duration returns Hi-Lo (0 when inverted).
func (iv TimeInterval) Duration() float64 {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// mergeIntervals sorts and coalesces touching intervals.
func mergeIntervals(ivs []TimeInterval) []TimeInterval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1e-9 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// InsidePolygonIntervals returns the merged time intervals during
// which the interpolated trajectory is inside pg (boundary counts as
// inside). This is the continuous-time rollup the paper's Type 7
// queries require ("a linear interpolation may indicate that the
// object has passed through that neighborhood").
func (l *LIT) InsidePolygonIntervals(pg geom.Polygon) []TimeInterval {
	var out []TimeInterval
	if l.NumLegs() == 0 {
		// Single-sample trajectory: a degenerate interval at the
		// sample instant.
		if pg.ContainsPoint(l.s[0].P) {
			t := float64(l.s[0].T)
			out = append(out, TimeInterval{Lo: t, Hi: t})
		}
		return out
	}
	return l.InsidePolygonIntervalsFrom(pg, 0, nil)
}

// InsidePolygonIntervalsFrom extends prior, the InsidePolygonIntervals
// of an earlier sample of this trajectory that ended at sample leg
// (so it had leg+1 samples and leg ≥ 1), to the whole trajectory: only
// legs leg onward are clipped. Merging coalesces whole chains of
// touching intervals, so merging prior's already merged chains with the
// new legs' pieces yields exactly InsidePolygonIntervals. prior is not
// modified.
func (l *LIT) InsidePolygonIntervalsFrom(pg geom.Polygon, leg int, prior []TimeInterval) []TimeInterval {
	out := append([]TimeInterval(nil), prior...)
	box := pg.BBox()
	for i := leg; i < l.NumLegs(); i++ {
		t0, t1, seg := l.Leg(i)
		if !box.Intersects(seg.BBox()) {
			continue
		}
		for _, iv := range pg.SegmentInsideIntervals(seg) {
			out = append(out, TimeInterval{
				Lo: t0 + iv.Lo*(t1-t0),
				Hi: t0 + iv.Hi*(t1-t0),
			})
		}
	}
	return mergeIntervals(out)
}

// TimeInsidePolygon returns the total time the interpolated
// trajectory spends inside pg.
func (l *LIT) TimeInsidePolygon(pg geom.Polygon) float64 {
	var sum float64
	for _, iv := range l.InsidePolygonIntervals(pg) {
		sum += iv.Duration()
	}
	return sum
}

// PassesThroughPolygon reports whether the interpolated trajectory
// ever enters pg, even between samples (the paper's O6 case in
// Figure 1).
func (l *LIT) PassesThroughPolygon(pg geom.Polygon) bool {
	if l.NumLegs() == 0 {
		return pg.ContainsPoint(l.s[0].P)
	}
	box := pg.BBox()
	for i := 0; i < l.NumLegs(); i++ {
		_, _, seg := l.Leg(i)
		if box.Intersects(seg.BBox()) && pg.IntersectsSegment(seg) {
			return true
		}
	}
	return false
}

// SampledInPolygon reports whether any raw sample point lies in pg
// (the sample-only semantics of Type 4 queries).
func (s Sample) SampledInPolygon(pg geom.Polygon) bool {
	for _, tp := range s {
		if pg.ContainsPoint(tp.P) {
			return true
		}
	}
	return false
}

// WithinRadiusIntervals returns the merged time intervals during
// which the interpolated position is within distance r of center.
// Per leg, the squared distance to center is a quadratic in t; its
// sub-level set {t : d²(t) ≤ r²} is solved in closed form, exactly as
// the constraint (x-x1)²+(y-y1)² ≤ r² appears in queries Q6 and Q7.
func (l *LIT) WithinRadiusIntervals(center geom.Point, r float64) []TimeInterval {
	var out []TimeInterval
	r2 := r * r
	if l.NumLegs() == 0 {
		if l.s[0].P.Dist2(center) <= r2 {
			t := float64(l.s[0].T)
			out = append(out, TimeInterval{Lo: t, Hi: t})
		}
		return out
	}
	for i := 0; i < l.NumLegs(); i++ {
		t0, t1, seg := l.Leg(i)
		lo, hi, ok := segmentWithinRadius(seg, center, r2)
		if !ok {
			continue
		}
		out = append(out, TimeInterval{
			Lo: t0 + lo*(t1-t0),
			Hi: t0 + hi*(t1-t0),
		})
	}
	return mergeIntervals(out)
}

// segmentWithinRadius returns the parameter sub-interval [lo, hi] ⊆
// [0,1] of seg within squared distance r2 of center, with ok=false
// when empty.
func segmentWithinRadius(seg geom.Segment, center geom.Point, r2 float64) (lo, hi float64, ok bool) {
	d := seg.B.Sub(seg.A)
	f := seg.A.Sub(center)
	a := d.Norm2()
	if a == 0 {
		if f.Norm2() <= r2 {
			return 0, 1, true
		}
		return 0, 0, false
	}
	b := 2 * f.Dot(d)
	c := f.Norm2() - r2
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	lo = (-b - sq) / (2 * a)
	hi = (-b + sq) / (2 * a)
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// TimeWithinRadius returns the total time within distance r of
// center.
func (l *LIT) TimeWithinRadius(center geom.Point, r float64) float64 {
	var sum float64
	for _, iv := range l.WithinRadiusIntervals(center, r) {
		sum += iv.Duration()
	}
	return sum
}

// EverWithinRadius reports whether the interpolated trajectory ever
// comes within distance r of center.
func (l *LIT) EverWithinRadius(center geom.Point, r float64) bool {
	r2 := r * r
	if l.NumLegs() == 0 {
		return l.s[0].P.Dist2(center) <= r2
	}
	for i := 0; i < l.NumLegs(); i++ {
		_, _, seg := l.Leg(i)
		if _, _, ok := segmentWithinRadius(seg, center, r2); ok {
			return true
		}
	}
	return false
}
