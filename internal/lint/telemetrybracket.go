package lint

import (
	"go/ast"
)

// AnalyzerTelemetryBracket enforces the telemetry contract: every
// exported Querier method on an Engine receiver — exported, context
// first, error last — runs the telemetry begin/done bracket exactly
// once on every return path:
//
//   - the method's body opens with `qc, ctx, done := recv.begin(...)`;
//   - `defer done(&err)` is registered in the same basic block — before
//     any branch, loop or return can leave the method — and &err names
//     the method's named error result, so the classifier observes the
//     real outcome;
//   - the begin call dominates every exit and does not sit on a cycle,
//     so the bracket cannot run zero or two times;
//   - `//moglint:nobracket` on the method's doc comment exempts
//     exported error-returning methods that are not queries.
//
// Helper functions must not open brackets of their own: a begin
// assignment anywhere else in the package double-records the query.
// The analysis runs over the real control-flow graph (cfg.go), not
// lexical statement order.
var AnalyzerTelemetryBracket = &Analyzer{
	Name: "telemetrybracket",
	Doc:  "Querier methods run the telemetry begin/done bracket exactly once on all paths",
	Run:  runTelemetryBracket,
}

// isBeginAssign matches `a, b, done := x.begin(...)`, returning the
// `done` identifier. The receiver must resolve to an
// Engine-named type so unrelated begin methods stay out of scope.
func (p *Package) isBeginAssign(s ast.Stmt) (*ast.Ident, bool) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 3 {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || fn.Sel.Name != "begin" || !typeNameIs(p.typeOf(fn.X), "Engine") {
		return nil, false
	}
	done, ok := as.Lhs[2].(*ast.Ident)
	if !ok {
		return nil, false
	}
	return done, true
}

// isDeferDone matches `defer done(&err)` for the given done variable,
// returning the &-operand identifier.
func isDeferDone(s ast.Stmt, done *ast.Ident) (*ast.Ident, bool) {
	ds, ok := s.(*ast.DeferStmt)
	if !ok {
		return nil, false
	}
	fn, ok := ds.Call.Fun.(*ast.Ident)
	if !ok || done == nil || fn.Obj == nil || fn.Obj != done.Obj {
		return nil, false
	}
	if len(ds.Call.Args) != 1 {
		return nil, true
	}
	un, ok := ds.Call.Args[0].(*ast.UnaryExpr)
	if !ok || un.Op.String() != "&" {
		return nil, true
	}
	id, _ := un.X.(*ast.Ident)
	return id, true
}

// querierMethod reports whether fd is in the bracket contract's scope:
// an exported method on Engine taking context first and
// returning error last.
func querierMethod(p *Package, fd *ast.FuncDecl) bool {
	if fd.Body == nil || !fd.Name.IsExported() {
		return false
	}
	recv := p.receiverType(fd)
	if recv == nil || recv.Obj().Name() != "Engine" {
		return false
	}
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 || !isContextType(p.typeOf(params.List[0].Type)) {
		return false
	}
	return lastResultIsError(p, fd)
}

// namedErrResult returns the identifier of the function's named final
// error result (nil when unnamed).
func namedErrResult(fd *ast.FuncDecl) *ast.Ident {
	r := fd.Type.Results
	if r == nil || len(r.List) == 0 {
		return nil
	}
	last := r.List[len(r.List)-1]
	if len(last.Names) == 0 {
		return nil
	}
	return last.Names[len(last.Names)-1]
}

func runTelemetryBracket(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		// The package must define the bracket to be in scope at all.
		definesBracket := false
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					name, _ := recvTypeName(fd)
					if fd.Name.Name == "begin" && name == "Engine" {
						definesBracket = true
					}
				}
			}
		}
		if !definesBracket {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, checkBracket(p, fd)...)
			}
		}
	}
	return out
}

func checkBracket(p *Package, fd *ast.FuncDecl) []Finding {
	inScope := querierMethod(p, fd) && !hasDirective(fd.Doc, "moglint:nobracket")

	// Locate every begin assignment in the body (closures excluded:
	// a bracket opened inside a spawned worker is its own defect).
	type beginSite struct {
		stmt ast.Stmt
		done *ast.Ident
	}
	var begins []beginSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			if done, ok := p.isBeginAssign(s); ok {
				begins = append(begins, beginSite{stmt: s, done: done})
			}
		}
		return true
	})

	var out []Finding
	if !inScope {
		// The bracket definition itself aside, helpers must not open
		// brackets.
		if fd.Name.Name == "begin" {
			return nil
		}
		for _, b := range begins {
			out = append(out, p.finding("telemetrybracket", b.stmt,
				"telemetry bracket opened in %s, which is not an exported Querier method; the query is double-recorded", fd.Name.Name))
		}
		return out
	}

	if len(begins) == 0 {
		out = append(out, p.finding("telemetrybracket", fd.Name,
			"exported Querier method %s never runs the telemetry begin/done bracket", fd.Name.Name))
		return out
	}
	if len(begins) > 1 {
		for _, b := range begins[1:] {
			out = append(out, p.finding("telemetrybracket", b.stmt,
				"second telemetry bracket in %s; the bracket must run exactly once", fd.Name.Name))
		}
		return out
	}

	b := begins[0]
	g := buildCFG(fd.Body)
	blk := g.blockOf(b.stmt)
	if blk == nil {
		return out // statement buried somewhere the CFG did not model
	}
	if !g.dominatesExit(blk) {
		out = append(out, p.finding("telemetrybracket", b.stmt,
			"telemetry bracket in %s does not dominate every return; some paths exit unrecorded", fd.Name.Name))
	}
	if g.inCycle(blk) {
		out = append(out, p.finding("telemetrybracket", b.stmt,
			"telemetry bracket in %s sits inside a loop; the bracket must run exactly once", fd.Name.Name))
	}

	// defer done(&err) must land in the same basic block as begin:
	// no branch, loop or return may come between.
	var deferArg *ast.Ident
	deferFound := false
	started := false
	for _, s := range blk.stmts {
		if s == b.stmt {
			started = true
			continue
		}
		if !started {
			continue
		}
		if arg, ok := isDeferDone(s, b.done); ok {
			deferFound = true
			deferArg = arg
			break
		}
	}
	if !deferFound {
		out = append(out, p.finding("telemetrybracket", b.stmt,
			"begin in %s is not followed by `defer done(&err)` before control can branch; a panic or early return escapes the bracket", fd.Name.Name))
		return out
	}
	errRes := namedErrResult(fd)
	if errRes == nil {
		out = append(out, p.finding("telemetrybracket", fd.Type,
			"%s defers done(&err) but has no named error result for it to observe", fd.Name.Name))
	} else if deferArg == nil || deferArg.Obj == nil || deferArg.Obj != errRes.Obj {
		out = append(out, p.finding("telemetrybracket", b.stmt,
			"defer done(...) in %s does not pass the address of the named error result %s; outcomes are misclassified", fd.Name.Name, errRes.Name))
	}
	return out
}
