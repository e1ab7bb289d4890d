package lint

import (
	"go/ast"
)

// AnalyzerSpanEnd enforces the tracer contract: the span returned by
// obs.Tracer.Start (or Root) must be ended on every path out of the
// function that opened it — via defer s.End(), an End call that
// dominates each return, or a Finish() on the tracer. A span left
// open wedges the tracer's cursor on that stage, so every later span
// of the query nests under it and EXPLAIN ANALYZE reports a corrupted
// tree.
//
// The check is a lexical path analysis, not a full CFG: an End inside
// a conditional closes the span only for the paths of that branch, a
// defer closes it for everything after the defer statement, and
// statements inside function literals are ignored (they may never
// run). Tracer and span expressions resolve through go/types, so a
// renamed import or an accessor returning *obs.Tracer both count.
var AnalyzerSpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "obs spans must be ended on every path out of the opening function",
	Run:  runSpanEnd,
}

func runSpanEnd(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, checkFuncSpans(p, fd)...)
			}
		}
	}
	return out
}

func pathTail(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// isTracerExpr reports whether e denotes an obs.Tracer under the type
// checker — a *Tracer variable, field, or the result of an accessor
// like obs.TracerFrom(ctx), regardless of import name.
func (p *Package) isTracerExpr(e ast.Expr) bool {
	return typeIsTail(p.typeOf(e), "obs", "Tracer")
}

// isSpanCall reports whether call creates a span: tracer.Start(name)
// or tracer.Root() on anything whose static type is obs.Tracer.
func (p *Package) isSpanCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Start":
		return len(call.Args) == 1 && p.isTracerExpr(sel.X)
	case "Root":
		return len(call.Args) == 0 && p.isTracerExpr(sel.X)
	}
	return false
}

// spanVar is one tracked span: the variable it was assigned to and
// the statement that opened it.
type spanVar struct {
	obj   *ast.Object
	name  string
	start ast.Stmt
}

// checkFuncSpans finds every span opened in fd and verifies each is
// ended on all paths.
func checkFuncSpans(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	var spans []spanVar
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // closures are separate execution contexts
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isSpanCall(call) {
					continue
				}
				if i >= len(v.Lhs) {
					continue
				}
				id, ok := v.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" || id.Obj == nil {
					out = append(out, p.finding("spanend", call,
						"span from %s is discarded and can never be ended", calleeName(call)))
					continue
				}
				spans = append(spans, spanVar{obj: id.Obj, name: id.Name, start: v})
			}
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok && p.isSpanCall(call) {
				out = append(out, p.finding("spanend", call,
					"span from %s is discarded and can never be ended", calleeName(call)))
			}
		}
		return true
	})

	for _, sv := range spans {
		out = append(out, checkSpanPaths(p, fd, sv)...)
	}
	return out
}

// spanWalk carries the state of the lexical path analysis for one
// span variable.
type spanWalk struct {
	p        *Package
	sv       spanVar
	active   bool // start statement passed
	closed   bool // End/defer End/Finish dominates from here on
	findings []Finding
}

// checkSpanPaths walks the function body in source order, activating
// at the span's Start statement and flagging every return reachable
// while the span is still open.
func checkSpanPaths(p *Package, fd *ast.FuncDecl, sv spanVar) []Finding {
	w := &spanWalk{p: p, sv: sv}
	w.stmts(fd.Body.List)
	if w.active && !w.closed && len(w.findings) == 0 {
		w.findings = append(w.findings, p.finding("spanend", sv.start,
			"span %q may reach the end of the function without End", sv.name))
	}
	return w.findings
}

// closesSpan reports whether stmt is s.End() (or a defer of it) for
// the tracked variable, or a tracer Finish() which ends every open
// span.
func (w *spanWalk) closesSpan(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "End":
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Obj == w.sv.obj
	case "Finish":
		return w.p.isTracerExpr(sel.X)
	}
	return false
}

// stmts processes a statement list sequentially, threading the
// active/closed state.
func (w *spanWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *spanWalk) stmt(s ast.Stmt) {
	if s == w.sv.start {
		w.active = true
		return
	}
	switch v := s.(type) {
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok && w.active && w.closesSpan(call) {
			w.closed = true
		}
	case *ast.DeferStmt:
		if w.active && w.closesSpan(v.Call) {
			w.closed = true
		}
	case *ast.ReturnStmt:
		if w.active && !w.closed {
			w.findings = append(w.findings, w.p.finding("spanend", v,
				"return while span %q is still open (End not called on this path)", w.sv.name))
		}
	case *ast.BlockStmt:
		w.stmts(v.List)
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.branch(v.Body.List)
		if v.Else != nil {
			w.branchStmt(v.Else)
		}
	case *ast.ForStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.branch(v.Body.List)
	case *ast.RangeStmt:
		w.branch(v.Body.List)
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.clauses(v.Body)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.clauses(v.Body)
	case *ast.SelectStmt:
		w.clauses(v.Body)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt)
	case *ast.GoStmt:
		// A goroutine's End is asynchronous; neither closes nor leaks
		// on this function's paths.
	}
}

// branch analyzes a conditionally executed statement list: state
// changes inside it (an End in one arm) are visible to the branch's
// own returns but do not close the span for the fall-through path.
// A span whose whole Start..End life lies inside the branch (e.g. a
// per-iteration span in a loop body) stays closed afterwards.
func (w *spanWalk) branch(list []ast.Stmt) {
	wasActive := w.active
	savedClosed := w.closed
	w.stmts(list)
	if !wasActive && w.active && w.closed {
		return // opened and closed entirely within the branch
	}
	if w.active {
		w.closed = w.closed && savedClosed
	}
}

func (w *spanWalk) branchStmt(s ast.Stmt) {
	wasActive := w.active
	savedClosed := w.closed
	w.stmt(s)
	if !wasActive && w.active && w.closed {
		return
	}
	if w.active {
		w.closed = w.closed && savedClosed
	}
}

func (w *spanWalk) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			w.branch(cl.Body)
		case *ast.CommClause:
			w.branch(cl.Body)
		}
	}
}
