package lint

import (
	"go/ast"
	"go/types"
)

// ctxScopePkgs are the long-running generation/simulation packages
// whose exported loop-bearing entry points must be cancellable: LRD
// generation runs seconds at multi-million-point lengths, the queueing
// sweeps run minutes at paper scale, and an interrupt's prompt exit 130
// only works if cancellation can reach every loop.
var ctxScopePkgs = map[string]bool{
	"vbr/internal/fgn":         true,
	"vbr/internal/core":        true,
	"vbr/internal/queue":       true,
	"vbr/internal/experiments": true,
}

// CtxCheckAnalyzer enforces context plumbing: exported loop-bearing
// functions in the scope packages must accept a context.Context, and
// context.Background() may appear only in internal/cli, where the
// commands' root signal context is created, and in a main package's
// func main, where a program without internal/cli makes its root.
var CtxCheckAnalyzer = &Analyzer{
	Name: "ctxcheck",
	Doc: "exported loop-bearing functions in fgn/core/queue/experiments must take " +
		"context.Context; context.Background() only in internal/cli and a main package's func main; " +
		"internal/server handlers must thread r.Context() into context-taking calls",
	Run: runCtxCheck,
}

func runCtxCheck(pass *Pass) {
	info := pass.TypesInfo()
	inScope := ctxScopePkgs[pass.Path()]
	inServer := pathHasPrefix(pass.Path(), "vbr/internal/server")
	for _, f := range pass.Files() {
		// Rule C: an HTTP handler that passes any context into its
		// callees must derive that context from the request — a handler
		// holding a detached context keeps generating for clients that
		// hung up and ignores the daemon's drain deadline. Handlers
		// passing no context anywhere (status and lookup endpoints) are
		// exempt.
		if inServer {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				req := handlerRequestParam(info, fd)
				if req == nil {
					continue
				}
				passesCtx, callsReqCtx := handlerContextUse(info, fd, req)
				if passesCtx && !callsReqCtx {
					pass.Reportf(fd.Name.Pos(), "handler %s passes a context to its callees but never calls r.Context(); thread the request context into generation/simulation calls", fd.Name.Name)
				}
			}
		}
		// Rule A: exported functions containing loops must be
		// cancellable unless they carry an ignore directive documenting
		// why the loop is bounded. Functions without an error result are
		// skipped: they have no channel to surface ctx.Err(), and in
		// this codebase they are uniformly cheap accessors/formatters.
		if inScope {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				if !containsLoop(fd.Body) || hasContextParam(info, fd) {
					continue
				}
				if !returnsError(info, fd) {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "exported %s contains a loop but takes no context.Context; plumb ctx (or annotate why the loop is bounded)", fd.Name.Name)
			}
		}
		// Rule B: context.Background() severs cancellation, so it is
		// only legitimate where a fresh root context is the point: the
		// signal context of internal/cli and a program's func main.
		if pass.Path() == "vbr/internal/cli" {
			continue
		}
		inMainPkg := f.Name.Name == "main"
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); !isPkgFunc(fn, "context", "Background") {
				return true
			}
			if fd := enclosingFuncDecl(stack); inMainPkg && fd != nil && fd.Recv == nil && fd.Name.Name == "main" {
				return true
			}
			pass.Reportf(call.Pos(), "context.Background() outside internal/cli and func main severs cancellation; accept and pass through a ctx instead")
			return true
		})
	}
}

// handlerRequestParam recognizes http.HandlerFunc-shaped declarations —
// a parameter list carrying both a net/http.ResponseWriter and a
// *net/http.Request — and returns the request parameter's object, or
// nil when fd is not a handler.
func handlerRequestParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := obj.Type().(*types.Signature).Params()
	var req *types.Var
	hasWriter := false
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		switch {
		case isHTTPType(p.Type(), "ResponseWriter"):
			hasWriter = true
		case isPointerToHTTPType(p.Type(), "Request"):
			req = p
		}
	}
	if !hasWriter {
		return nil
	}
	return req
}

// handlerContextUse walks a handler body and reports whether it passes
// any context.Context-typed argument to a call, and whether it calls
// Context() on the request parameter.
func handlerContextUse(info *types.Info, fd *ast.FuncDecl, req *types.Var) (passesCtx, callsReqCtx bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" && len(call.Args) == 0 {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == req {
				callsReqCtx = true
			}
		}
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil && isContextType(t) {
				passesCtx = true
			}
		}
		return true
	})
	return passesCtx, callsReqCtx
}

// isHTTPType reports whether t is the named type net/http.<name>.
func isHTTPType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == name
}

// isPointerToHTTPType reports whether t is *net/http.<name>.
func isPointerToHTTPType(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isHTTPType(ptr.Elem(), name)
}
