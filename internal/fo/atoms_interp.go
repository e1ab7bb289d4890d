package fo

import (
	"fmt"

	"mogis/internal/moft"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// InterpFact is the interpolated counterpart of the Fact atom: it
// realizes the paper's Q5/Q6 interpolation equations
//
//	x = ((t2-t)·x1 + (t-t1)·x2)/(t2-t1),  y analogous,
//
// as a generator over an explicit, finite set of instants. For every
// object of the table and every instant in Times within the object's
// time domain, it generates (Oid, t, x, y) with the linearly
// interpolated position. Discretizing the continuous t keeps the
// formula range-restricted, so the whole query machinery (negation,
// aggregation, joins with rollup atoms) applies unchanged; the
// continuous-interval semantics live in the engine (package core).
//
// Each evaluation interpolates from the table version it resolves,
// only the objects it visits (just the bound one when O is bound), and
// keeps nothing afterwards: the engine's version-owned trajectory
// cache is the one that outlives a query.
type InterpFact struct {
	Table      string
	Times      []timedim.Instant
	O, T, X, Y Term
}

func (a *InterpFact) freeVars(set varset) { termVars(set, a.O, a.T, a.X, a.Y) }

func (a *InterpFact) binds(bound varset) (varset, bool) {
	return bindTerms(bound, a.O, a.T, a.X, a.Y), true
}

func (a *InterpFact) eval(ctx *Context, envs []*Env, bound varset) ([]*Env, error) {
	if len(a.Times) == 0 {
		return nil, fmt.Errorf("fo: InterpFact needs at least one instant")
	}
	tbl, err := ctx.Table(a.Table)
	if err != nil {
		return nil, err
	}
	// lits memoizes this evaluation's trajectories; it dies with the
	// call, so concurrent evaluations share nothing.
	lits := make(map[moft.Oid]*traj.LIT)
	trajectory := func(oid moft.Oid) (*traj.LIT, error) {
		if l, ok := lits[oid]; ok {
			return l, nil
		}
		tps := tbl.ObjectTuples(oid)
		if len(tps) == 0 {
			return nil, nil
		}
		s := make(traj.Sample, len(tps))
		for i, tp := range tps {
			s[i] = traj.TimePoint{T: tp.T, P: tp.Point()}
		}
		l, err := traj.NewLIT(s)
		if err != nil {
			return nil, fmt.Errorf("fo: object O%d: %w", oid, err)
		}
		lits[oid] = l
		return l, nil
	}
	all := tbl.Objects()
	var out []*Env
	for _, env := range envs {
		emit := func(oid moft.Oid, l *traj.LIT) {
			for _, ts := range a.Times {
				p, ok := l.AtInstant(ts)
				if !ok {
					continue
				}
				e, ok := env.bindOrCheck(a.O, VObj(oid))
				if !ok {
					continue
				}
				if e, ok = e.bindOrCheck(a.T, VTime(ts)); !ok {
					continue
				}
				if e, ok = e.bindOrCheck(a.X, VReal(p.X)); !ok {
					continue
				}
				if e, ok = e.bindOrCheck(a.Y, VReal(p.Y)); !ok {
					continue
				}
				out = append(out, e)
			}
		}
		oids := all
		if ov, ok := env.resolve(a.O); ok {
			oids = []moft.Oid{ov.Obj()}
		}
		for _, oid := range oids {
			l, err := trajectory(oid)
			if err != nil {
				return nil, err
			}
			if l != nil {
				emit(oid, l)
			}
		}
	}
	return out, nil
}

// Instants builds an inclusive instant range with the given step —
// the discretization grid InterpFact queries typically use.
func Instants(lo, hi timedim.Instant, step int64) []timedim.Instant {
	if step <= 0 || hi < lo {
		return nil
	}
	var out []timedim.Instant
	for t := lo; t <= hi; t += timedim.Instant(step) {
		out = append(out, t)
	}
	return out
}
