package traj

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mogis/internal/geom"
	"mogis/internal/timedim"
)

func randomSample(rng *rand.Rand, n int) Sample {
	s := make(Sample, n)
	var t timedim.Instant
	p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
	for i := 0; i < n; i++ {
		t += timedim.Instant(1 + rng.Intn(30))
		p = p.Add(geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
		s[i] = TimePoint{T: t, P: p}
	}
	return s
}

// Property: the total time inside any polygon never exceeds the
// trajectory's duration, and the inside intervals are sorted,
// disjoint and within the time domain.
func TestInsideIntervalsInvariants(t *testing.T) {
	pg := geom.Polygon{Shell: geom.Ring{
		geom.Pt(20, 20), geom.Pt(80, 20), geom.Pt(80, 80), geom.Pt(20, 80),
	}}
	f := func(seed int64, n8 uint8) bool {
		n := 2 + int(n8)%30
		rng := rand.New(rand.NewSource(seed))
		l := MustLIT(randomSample(rng, n))
		dom := l.TimeDomain()
		ivs := l.InsidePolygonIntervals(pg)
		var total float64
		for i, iv := range ivs {
			if iv.Hi < iv.Lo {
				return false
			}
			if iv.Lo < float64(dom.Lo)-1e-9 || iv.Hi > float64(dom.Hi)+1e-9 {
				return false
			}
			if i > 0 && iv.Lo < ivs[i-1].Hi-1e-9 {
				return false // overlapping or unsorted
			}
			total += iv.Duration()
		}
		return total <= float64(dom.Duration())+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: positions inside the reported inside-intervals are really
// inside the polygon (midpoint check), and positions in gaps are
// outside.
func TestInsideIntervalsCorrectness(t *testing.T) {
	pg := geom.Polygon{Shell: geom.Ring{
		geom.Pt(20, 20), geom.Pt(80, 20), geom.Pt(80, 80), geom.Pt(20, 80),
	}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := MustLIT(randomSample(rng, 12))
		ivs := l.InsidePolygonIntervals(pg)
		for _, iv := range ivs {
			mid := (iv.Lo + iv.Hi) / 2
			p, ok := l.At(mid)
			if !ok || !pg.ContainsPoint(p) {
				return false
			}
		}
		// Between consecutive intervals the object is outside.
		for i := 1; i < len(ivs); i++ {
			gapMid := (ivs[i-1].Hi + ivs[i].Lo) / 2
			if gapMid <= ivs[i-1].Hi || gapMid >= ivs[i].Lo {
				continue
			}
			p, ok := l.At(gapMid)
			if ok && pg.Locate(p) == geom.Inside {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: At() is continuous across legs — evaluating at a sample
// instant returns the sample point exactly.
func TestAtHitsSamples(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 1 + int(n8)%20
		rng := rand.New(rand.NewSource(seed))
		s := randomSample(rng, n)
		l := MustLIT(s)
		for _, tp := range s {
			p, ok := l.AtInstant(tp.T)
			if !ok || !p.NearEq(tp.P, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: within-radius total time is monotone in the radius.
func TestWithinRadiusMonotone(t *testing.T) {
	center := geom.Pt(50, 50)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := MustLIT(randomSample(rng, 10))
		prev := 0.0
		for _, r := range []float64{5, 15, 40, 100} {
			d := l.TimeWithinRadius(center, r)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: compression never increases the sample size, preserves
// endpooints, and keeps a valid sample.
func TestCompressInvariants(t *testing.T) {
	f := func(seed int64, n8 uint8, eps8 uint8) bool {
		n := 2 + int(n8)%60
		rng := rand.New(rand.NewSource(seed))
		s := randomSample(rng, n)
		eps := float64(eps8%50) / 2
		c := Compress(s, eps)
		if len(c) > len(s) || len(c) < 2 {
			return false
		}
		if c[0] != s[0] || c[len(c)-1] != s[len(s)-1] {
			return false
		}
		if err := c.Validate(); err != nil {
			return false
		}
		// Larger epsilon never keeps more points.
		c2 := Compress(s, eps+10)
		if len(c2) > len(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: trajectory length equals the sum of leg lengths and
// bounds MaxSpeed × duration from below.
func TestLengthSpeedConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := MustLIT(randomSample(rng, 8))
		var sum float64
		for i := 0; i < l.NumLegs(); i++ {
			_, _, seg := l.Leg(i)
			sum += seg.Length()
		}
		if math.Abs(sum-l.Sample().Length()) > 1e-9 {
			return false
		}
		dur := float64(l.TimeDomain().Duration())
		return l.MaxSpeed()*dur >= sum-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: extending a prefix's inside-intervals by the legs the
// trajectory gained since equals clipping the whole trajectory, bit
// for bit, on a polygon with a hole and a prefix ending anywhere.
func TestInsideIntervalsFromMatchesFullClip(t *testing.T) {
	pg := geom.Polygon{
		Shell: geom.Ring{geom.Pt(20, 20), geom.Pt(80, 20), geom.Pt(80, 80), geom.Pt(20, 80)},
		Holes: []geom.Ring{{geom.Pt(40, 40), geom.Pt(60, 40), geom.Pt(60, 60), geom.Pt(40, 60)}},
	}
	f := func(seed int64, n8, k8 uint8) bool {
		n := 3 + int(n8)%30
		k := 2 + int(k8)%(n-2) // the prefix has k ≥ 2 samples, k < n
		rng := rand.New(rand.NewSource(seed))
		s := randomSample(rng, n)
		prior := MustLIT(s[:k]).InsidePolygonIntervals(pg)
		kept := append([]TimeInterval(nil), prior...)
		l := MustLIT(s)
		got := l.InsidePolygonIntervalsFrom(pg, k-1, prior)
		return reflect.DeepEqual(got, l.InsidePolygonIntervals(pg)) && reflect.DeepEqual(prior, kept)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
