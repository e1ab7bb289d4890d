package core

import (
	"context"
	"fmt"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// Uncertainty-aware query evaluation using the Hornsby–Egenhofer
// lifeline-bead model the paper cites in Section 2: between two
// observations the object may be anywhere reachable at its maximum
// speed, so "possibly passed through" is a superset of the
// linear-interpolation answer, which in turn is a superset of the
// sampled-inside answer.

// PossiblyResult classifies objects for an uncertainty-aware
// passes-through query.
type PossiblyResult struct {
	// Definite objects have a raw sample inside the region.
	Definite []moft.Oid
	// Likely objects enter under linear interpolation but have no
	// sample inside.
	Likely []moft.Oid
	// Possible objects only qualify under the bead model (some bead's
	// projection may intersect the region at speed vmax).
	Possible []moft.Oid
}

// ObjectsPossiblyPassingThrough stratifies the objects of a table by
// their relation to polygon pg during iv: definitely inside (sampled),
// likely inside (interpolated crossing), or possibly inside (lifeline
// bead at speedFactor × the object's maximum observed leg speed).
func (e *Engine) ObjectsPossiblyPassingThrough(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval, speedFactor float64) (PossiblyResult, error) {
	return run(ctx, e, "objects_possibly_passing_through", table, 0, func(ctx context.Context, qc *qctl) (PossiblyResult, error) {
		qc.noteWindow(iv)
		if speedFactor < 1 {
			return PossiblyResult{}, fmt.Errorf("core: speed factor must be ≥ 1, got %g", speedFactor)
		}
		// One version for all three strata: the query's own bracket.
		tc, err := e.table(ctx, qc)
		if err != nil {
			return PossiblyResult{}, err
		}
		e.countQuery(7)
		sampled, err := e.objectsSampledInside(ctx, qc, pg, iv)
		if err != nil {
			return PossiblyResult{}, err
		}
		e.countQuery(7)
		interp, err := e.objectsPassingThrough(ctx, qc, pg, iv)
		if err != nil {
			return PossiblyResult{}, err
		}
		// sampled, interp and tc.oids all ascend: a cursor into the
		// earlier stratum splits off the next one.
		res := PossiblyResult{Definite: sampled}
		next := 0
		for i, o := range interp {
			if i%checkEvery == 0 {
				if err := qc.step(ctx); err != nil {
					return PossiblyResult{}, err
				}
			}
			for next < len(sampled) && sampled[next] < o {
				next++
			}
			if next == len(sampled) || sampled[next] != o {
				res.Likely = append(res.Likely, o)
			}
		}
		next = 0
		for _, oid := range tc.oids {
			if next < len(interp) && interp[next] == oid {
				next++
				continue
			}
			l := tc.lits[oid]
			if err := qc.addRows(ctx, int64(len(l.Sample()))); err != nil {
				return PossiblyResult{}, err
			}
			vmax := l.MaxSpeed() * speedFactor
			if vmax == 0 {
				continue
			}
			for _, b := range traj.Beads(l, vmax) {
				if b.T2 < float64(iv.Lo) || b.T1 > float64(iv.Hi) {
					continue
				}
				if b.MayIntersectPolygon(pg, 32) {
					res.Possible = append(res.Possible, oid)
					break
				}
			}
		}
		return res, nil
	})
}
