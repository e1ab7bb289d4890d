package lint

import (
	"go/ast"
	"go/constant"
)

// budgetStrideCap mirrors checkEvery in internal/core/qctl.go: the
// maximum number of rows a scan loop may process between cooperative
// budget/cancellation checks.
const budgetStrideCap = 1024

// AnalyzerBudgetStride enforces the cooperative-cancellation contract
// on row scans: every loop over MOFT rows on a budget-governed path
// must call the query controller within a bounded stride, so a
// runaway scan is cut off within checkEvery rows rather than at the
// end of the table.
//
// Scope approximates "reachable from a query entry point" as "a qctl
// value is in scope": the controller is created by the telemetry
// bracket at the entry point and threaded down, so its presence marks
// the governed paths, and index builders or loaders that legitimately
// scan without a budget stay exempt. Within such functions (including
// their closures — fan-out workers capture qc), a loop counts as a
// row scan when it touches moft.Columns, or ranges over moft.Oid
// candidates or moft.Tuple rows. The loop passes when at least one
// qctl check (step, addRows, addResults) inside it is unconditional,
// or is guarded only by conditions carrying an integer constant in
// [1, 1024] (i%256 == 255, pending >= checkEvery, scanned%checkEvery
// == 0 all fold). Calls in an if's init or condition are
// unconditional. A guard whose constants all exceed the cap, or a
// loop with no check at all, is a finding.
var AnalyzerBudgetStride = &Analyzer{
	Name: "budgetstride",
	Doc:  "row-scan loops on budget-governed paths check the query controller within checkEvery rows",
	Run:  runBudgetStride,
}

func runBudgetStride(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !p.qctlInScope(fd) {
					continue
				}
				out = append(out, p.checkStrides(fd)...)
			}
		}
	}
	return out
}

// qctlInScope reports whether any expression in the function resolves
// to the query controller type.
func (p *Package) qctlInScope(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && typeNameIs(p.typeOf(e), "qctl") {
			found = true
			return false
		}
		return true
	})
	return found
}

// isRowScanLoop reports whether the for/range statement iterates MOFT
// rows: its header or body touches a moft.Columns value, or ranges
// over moft.Oid / moft.Tuple elements.
func (p *Package) isRowScanLoop(loop ast.Stmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := p.typeOf(e)
		if t == nil {
			return true
		}
		if typeIsTail(t, "moft", "Columns") ||
			typeIsTail(t, "moft", "Oid") ||
			typeIsTail(t, "moft", "Tuple") {
			found = true
			return false
		}
		return true
	})
	return found
}

// isQctlCheck matches qc.step / qc.addRows / qc.addResults on a
// qctl-typed receiver.
func (p *Package) isQctlCheck(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !typeNameIs(p.typeOf(sel.X), "qctl") {
		return false
	}
	switch sel.Sel.Name {
	case "step", "addRows", "addResults":
		return true
	}
	return false
}

// intConstants collects every integer constant the type checker folded
// anywhere in the expression (literals and named constants alike).
func (p *Package) intConstants(e ast.Expr) []int64 {
	var out []int64
	ast.Inspect(e, func(n ast.Node) bool {
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[ex]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// checkStrides walks every outermost row-scan loop in the function
// (closures included — they capture the controller) and validates it.
func (p *Package) checkStrides(fd *ast.FuncDecl) []Finding {
	var out []Finding
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loop := m.(ast.Stmt)
				if p.isRowScanLoop(loop) {
					out = append(out, p.checkLoop(fd.Name.Name, loop)...)
					// Nested row-scan loops are covered by this loop's
					// check; non-row-scan descendants need no visit.
					return false
				}
			}
			return true
		})
	}
	visit(fd.Body)
	return out
}

// checkLoop validates a single outermost row-scan loop.
func (p *Package) checkLoop(fname string, loop ast.Stmt) []Finding {
	// Collect every qctl check in the loop along with the guard
	// conditions between it and the loop (if-statement bodies only:
	// a call in an if's init or condition runs unconditionally).
	type site struct {
		call   *ast.CallExpr
		guards []ast.Expr
	}
	var sites []site
	var guardStack []ast.Expr
	var walk func(s ast.Stmt)
	findCalls := func(root ast.Node) {
		guards := append([]ast.Expr(nil), guardStack...)
		ast.Inspect(root, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && p.isQctlCheck(call) {
				sites = append(sites, site{call: call, guards: guards})
			}
			return true
		})
	}
	walk = func(s ast.Stmt) {
		switch v := s.(type) {
		case *ast.IfStmt:
			if v.Init != nil {
				findCalls(v.Init)
			}
			findCalls(v.Cond)
			guardStack = append(guardStack, v.Cond)
			walk(v.Body)
			if v.Else != nil {
				walk(v.Else)
			}
			guardStack = guardStack[:len(guardStack)-1]
		case *ast.BlockStmt:
			for _, t := range v.List {
				walk(t)
			}
		case *ast.ForStmt:
			if v.Init != nil {
				walk(v.Init)
			}
			walk(v.Body)
		case *ast.RangeStmt:
			walk(v.Body)
		case *ast.SwitchStmt:
			walk(v.Body)
		case *ast.TypeSwitchStmt:
			walk(v.Body)
		case *ast.SelectStmt:
			walk(v.Body)
		case *ast.CaseClause:
			for _, t := range v.Body {
				walk(t)
			}
		case *ast.CommClause:
			for _, t := range v.Body {
				walk(t)
			}
		case *ast.LabeledStmt:
			walk(v.Stmt)
		default:
			findCalls(s)
		}
	}
	switch v := loop.(type) {
	case *ast.ForStmt:
		walk(v.Body)
	case *ast.RangeStmt:
		walk(v.Body)
	}

	if len(sites) == 0 {
		return []Finding{p.finding("budgetstride", loop,
			"row-scan loop in %s never checks the query budget; a cancelled query scans to the end of the table", fname)}
	}

	// The loop passes when some check has bounded stride: every guard
	// between it and the loop folds an integer constant in [1, cap].
	overCap := int64(0)
	for _, s := range sites {
		bounded := true
		for _, g := range s.guards {
			ok := false
			var maxC int64
			for _, c := range p.intConstants(g) {
				if c >= 1 && c <= budgetStrideCap {
					ok = true
				}
				if c > maxC {
					maxC = c
				}
			}
			if !ok {
				bounded = false
				if maxC > budgetStrideCap && maxC > overCap {
					overCap = maxC
				}
				break
			}
		}
		if bounded {
			return nil
		}
	}
	if overCap > 0 {
		return []Finding{p.finding("budgetstride", loop,
			"row-scan loop in %s checks the budget every %d rows, exceeding checkEvery (%d)", fname, overCap, budgetStrideCap)}
	}
	return []Finding{p.finding("budgetstride", loop,
		"row-scan loop in %s only checks the budget under unbounded conditions; stride cannot be verified ≤ checkEvery", fname)}
}
