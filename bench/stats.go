package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail is reported only where at
// least this many samples lie beyond it.
const minBeyond = 10

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending sample; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(asc))))
	return asc[min(max(rank, 1), len(asc))-1]
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// tail returns the p-quantile only if at least minBeyond samples lie
// strictly beyond its rank.
func tail(asc []float64, p float64) (float64, bool) {
	rank := int(math.Ceil(p * float64(len(asc))))
	if len(asc)-rank < minBeyond {
		return 0, false
	}
	return percentile(asc, p), true
}

// quartiles reproduces Python's statistics.quantiles(v, n=4): the
// rule the acceptance spread is computed with. It needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median; 0
// when fewer than two values make it undefined.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timings are one request kind's samples of a run: v[i] was taken
// at[i] seconds into a window of the given length.
type timings struct {
	at, v  []float64
	window float64
}

const (
	// slices is how many equal time slices a window is cut into.
	slices = 8
	// minPerSlice is the sample count below which slicing would trade
	// the host's noise for sampling noise; such runs pool the window.
	minPerSlice = 100
)

// perSlice cuts the samples into time slices, or returns nil when any
// slice would hold fewer than minPerSlice.
func (t timings) perSlice() [][]float64 {
	out := make([][]float64, slices)
	for i, at := range t.at {
		j := min(max(int(at/t.window*slices), 0), slices-1)
		out[j] = append(out[j], t.v[i])
	}
	for _, s := range out {
		if len(s) < minPerSlice {
			return nil
		}
	}
	return out
}

// quietSide reduces per-slice statistics to one number. This host's
// disturbances last seconds and only ever slow a slice down (within one
// run the median of consecutive slices moved between 0.72 and 0.90 ms),
// so the quartile on the quiet side — the lower one of latencies, the
// upper one of rates — is what the program does when left alone. A real
// change moves every slice and so moves the quartile with it.
func quietSide(per []float64, higherIsQuiet bool) float64 {
	q1, _, q3 := quartiles(per)
	if higherIsQuiet {
		return q3
	}
	return q1
}

// each applies stat to every slice.
func each(sl [][]float64, stat func(asc []float64) float64) []float64 {
	per := make([]float64, len(sl))
	for i, s := range sl {
		per[i] = stat(sorted(s))
	}
	return per
}

// p50 is the median latency: per slice, then the quiet-side quartile;
// of the pooled window when the slices would be too thin.
func (t timings) p50() float64 {
	if sl := t.perSlice(); sl != nil {
		return quietSide(each(sl, func(asc []float64) float64 { return percentile(asc, 0.5) }), false)
	}
	return median(t.v)
}

// rate is completions per second, by the same rule.
func (t timings) rate() float64 {
	if sl := t.perSlice(); sl != nil {
		return quietSide(each(sl, func(asc []float64) float64 { return float64(len(asc)) / (t.window / slices) }), true)
	}
	return float64(len(t.v)) / t.window
}

// tail is the p99 per slice where every slice keeps minBeyond samples
// beyond it, reduced to the quiet-side quartile; otherwise the highest
// percentile the pooled window supports. Note names the percentile.
func (t timings) tail() metric {
	sl := t.perSlice()
	for _, s := range sl {
		if _, ok := tail(sorted(s), 0.99); !ok {
			sl = nil
			break
		}
	}
	if sl == nil {
		return highestTail(sorted(t.v))
	}
	p99 := quietSide(each(sl, func(asc []float64) float64 { return percentile(asc, 0.99) }), false)
	return metric{Value: p99, Unit: "ms", N: len(t.v), Note: "p99"}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
