package fo

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mogis/internal/obs"
	"mogis/internal/olap"
)

// Relation is the finite result of evaluating a range-restricted
// formula: a set of tuples over named columns. It is the
// spatio-temporal structure C of the paper's Section 3.1, e.g.
// {(Oid, t)} for Type-4 queries.
type Relation struct {
	Cols   []Var
	Tuples [][]Val
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Col returns the index of a column.
func (r *Relation) Col(v Var) (int, error) {
	for i, c := range r.Cols {
		if c == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("fo: relation has no column %q", v)
}

// Eval evaluates formula f against the model m with set semantics,
// returning the relation over the requested output columns (which must
// be free, range-restricted variables of f). Its plan and fo_eval spans
// go to the tracer ctx carries (obs.WithTracer), if any.
func Eval(ctx context.Context, m *Context, f Formula, out []Var) (*Relation, error) {
	tr := obs.TracerFrom(ctx)
	plan := tr.Start("plan")
	bound := varset{}
	nb, ok := f.binds(bound)
	if !ok {
		plan.End()
		return nil, &ErrNotRangeRestricted{Detail: "formula cannot be evaluated bottom-up"}
	}
	for _, v := range out {
		if !nb[v] {
			plan.End()
			return nil, &ErrNotRangeRestricted{Detail: fmt.Sprintf("output variable %q not range-restricted", v)}
		}
	}
	plan.End()
	sp := tr.Start("fo_eval")
	defer sp.End()
	envs, err := f.eval(m, []*Env{EmptyEnv}, bound)
	if err != nil {
		return nil, err
	}
	sp.SetCount("envs", int64(len(envs)))
	rel := &Relation{Cols: append([]Var(nil), out...)}
	seen := make(map[string]bool)
	for _, env := range envs {
		tup := make([]Val, len(out))
		for i, v := range out {
			val, ok := env.Lookup(v)
			if !ok {
				return nil, fmt.Errorf("fo: internal: variable %q unbound in result", v)
			}
			tup[i] = val
		}
		key := fingerprintTuple(tup)
		if !seen[key] {
			seen[key] = true
			rel.Tuples = append(rel.Tuples, tup)
		}
	}
	rel.sortTuples()
	sp.SetCount("tuples", int64(rel.Len()))
	return rel, nil
}

func fingerprintTuple(tup []Val) string {
	var sb strings.Builder
	for _, v := range tup {
		sb.WriteString(v.String())
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

func (r *Relation) sortTuples() {
	sort.Slice(r.Tuples, func(i, j int) bool {
		return fingerprintTuple(r.Tuples[i]) < fingerprintTuple(r.Tuples[j])
	})
}

// Project returns the relation restricted to cols with set semantics.
func (r *Relation) Project(cols ...Var) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := r.Col(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	out := &Relation{Cols: append([]Var(nil), cols...)}
	seen := make(map[string]bool)
	for _, tup := range r.Tuples {
		nt := make([]Val, len(idx))
		for i, j := range idx {
			nt[i] = tup[j]
		}
		key := fingerprintTuple(nt)
		if !seen[key] {
			seen[key] = true
			out.Tuples = append(out.Tuples, nt)
		}
	}
	out.sortTuples()
	return out, nil
}

// GroupAggregate implements the summable moving-objects query
// semantics Q = γ_{f,A,X}(C) of Section 3.1: group the relation's
// tuples by the groupBy columns and aggregate. For COUNT, measure may
// be empty; otherwise measure names a numeric column.
func (r *Relation) GroupAggregate(fn olap.AggFunc, measure Var, groupBy []Var) (*olap.AggResult, error) {
	gIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		j, err := r.Col(g)
		if err != nil {
			return nil, err
		}
		gIdx[i] = j
	}
	mIdx := -1
	if measure != "" {
		j, err := r.Col(measure)
		if err != nil {
			return nil, err
		}
		mIdx = j
	} else if fn != olap.Count {
		return nil, fmt.Errorf("fo: aggregate %s requires a measure column", fn)
	}

	accs := make(map[string]*olap.Accumulator)
	keys := make(map[string][]olap.Member)
	for _, tup := range r.Tuples {
		key := make([]olap.Member, len(gIdx))
		for i, j := range gIdx {
			key[i] = olap.Member(tup[j].String())
		}
		ks := fingerprintMembers(key)
		acc := accs[ks]
		if acc == nil {
			acc = olap.NewAccumulator(fn)
			accs[ks] = acc
			keys[ks] = key
		}
		if mIdx >= 0 {
			f, ok := tup[mIdx].Real()
			if !ok {
				return nil, fmt.Errorf("fo: non-numeric measure value %v", tup[mIdx])
			}
			acc.Add(f)
		} else {
			acc.AddCount()
		}
	}

	cols := make([]string, len(groupBy))
	for i, g := range groupBy {
		cols[i] = string(g)
	}
	res := &olap.AggResult{GroupCols: cols}
	for ks, acc := range accs {
		v, ok := acc.Result()
		if !ok {
			continue
		}
		res.Rows = append(res.Rows, olap.AggResultRow{Group: keys[ks], Value: v, N: acc.N()})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return fingerprintMembers(res.Rows[i].Group) < fingerprintMembers(res.Rows[j].Group)
	})
	return res, nil
}

func fingerprintMembers(ms []olap.Member) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, "\x1f")
}

// String renders the relation as an aligned table.
func (r *Relation) String() string {
	var sb strings.Builder
	for i, c := range r.Cols {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(string(c))
	}
	sb.WriteByte('\n')
	for _, tup := range r.Tuples {
		for i, v := range tup {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
