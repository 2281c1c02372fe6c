package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the *types.Func a call expression invokes, for
// direct calls (pkg.F(...), recv.M(...), F(...)). Calls through
// function values, conversions and builtins return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function
// pkgPath.name (methods never match).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// pkgLevelCallTo reports whether call invokes any package-level
// function of pkgPath, returning its name.
func pkgLevelCallTo(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", false
	}
	return fn.Name(), true
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorType reports whether t is the predeclared error interface (the
// static type of sentinel variables and err results).
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNil := info.Uses[id].(*types.Nil)
		return isNil
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContextParam reports whether the function declaration takes a
// context.Context anywhere in its parameter list.
func hasContextParam(info *types.Info, decl *ast.FuncDecl) bool {
	obj, ok := info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// returnsError reports whether any of decl's results is an error.
func returnsError(info *types.Info, decl *ast.FuncDecl) bool {
	obj, ok := info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// receiverBaseName returns the receiver's base type name ("Mux" for
// func (m *Mux) ...), or "" for plain functions.
func receiverBaseName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// enclosingFuncDecl returns the innermost FuncDecl in stack (a path of
// nodes from the file root), or nil.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// inspectWithStack walks root, calling visit with each node and the
// stack of its ancestors (outermost first, not including the node
// itself).
func inspectWithStack(f ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			// ast.Inspect only emits the closing nil for nodes it
			// descended into, so push/pop must follow descend.
			stack = append(stack, n)
		}
		return descend
	})
}

// containsLoop reports whether the function body contains any for or
// range statement (including inside function literals it defines).
func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// pathHasPrefix reports whether the import path is pkg or below it.
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
