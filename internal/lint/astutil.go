package lint

import (
	"go/ast"
	"strings"
)

// recvTypeName returns the base type name of a method receiver
// ("Engine" for *Engine, Engine, or a generic instantiation) and
// whether the receiver is a pointer.
func recvTypeName(fd *ast.FuncDecl) (name string, pointer bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		pointer = true
		t = st.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name, pointer
	case *ast.IndexExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	case *ast.IndexListExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	}
	return "", pointer
}

// hasDirective reports whether a comment group contains the given
// //moglint: directive line.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// fileHasDirective reports whether the file's package doc comment
// carries the directive; a file-level directive puts every function
// in the file in the analyzer's scope. Only the doc comment counts —
// a function-level directive elsewhere in the file must not widen the
// scope to its neighbors.
func fileHasDirective(f *ast.File, directive string) bool {
	return hasDirective(f.Doc, directive)
}

// lineDirective reports whether any comment in the file carries the
// directive on the given line — for statements (go statements, loops)
// that have no doc comment of their own, an end-of-line or
// preceding-line //moglint: comment opts them out.
func lineDirective(p *Package, f *ast.File, line int, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) != directive {
				continue
			}
			cl := p.Fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// calleeName returns the bare method/function name of a call
// expression ("" when the callee is not an identifier or selector).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
