package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxflowAnalyzer enforces context plumbing on the RPC surface: inside
// internal/agents and the facade, an exported function or method that
// performs I/O — directly, or one call away through a helper that does
// (in this package or, via directIOFact, a dependency) — must accept a
// context.Context (or have an exported <Name>Context sibling), and no
// function may synthesize context.Background()/context.TODO() unless it
// is the documented convenience wrapper of its own <Name>Context
// variant.
var CtxflowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "exported I/O- or RPC-performing functions in internal/agents and the facade " +
		"must accept a context.Context — I/O one helper call away counts — and may " +
		"not synthesize context.Background()",
	Filter: func(pkgPath string) bool {
		return !strings.Contains(pkgPath, "/") || // module root = the facade
			strings.Contains(pkgPath, "internal/agents")
	},
	Run: runCtxflow,
}

// directIOFact marks a function whose own body performs network or
// stream I/O; Desc names the operation (e.g. "net.Conn.Write"). The
// fact lets exported callers one package downstream be held to the
// context rule without re-analyzing the helper's source.
type directIOFact struct {
	Desc string
}

func (*directIOFact) AFact() {}

func runCtxflow(pass *Pass) (any, error) {
	// funcNames collects every function / method name in the package so
	// the <Name>Context sibling rule can be checked cheaply. Keyed by
	// "Recv.Name" for methods and "Name" for functions.
	funcNames := make(map[string]bool)
	// ioOf records which declared functions perform I/O in their own
	// body, exported as directIOFacts for downstream packages.
	ioOf := make(map[FactKey]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcNames[enclosingFuncName(fd)] = true
			if fd.Body == nil {
				continue
			}
			if io := directIOCall(pass, fd.Body); io != "" {
				obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if key, ok := FuncKey(obj); ok {
					ioOf[key] = io
					pass.ExportFact(key, &directIOFact{Desc: io})
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := enclosingFuncName(fd)
			isWrapper := funcNames[name+"Context"]
			if fd.Name.IsExported() && !isWrapper && !hasCtxParam(pass, fd) {
				if io := directIOCall(pass, fd.Body); io != "" {
					pass.Reportf(fd.Name.Pos(), "exported %s performs I/O (%s) but accepts no context.Context and has no %sContext variant", name, io, fd.Name.Name)
				} else if helper, io := helperIOCall(pass, fd.Body, ioOf); io != "" {
					pass.Reportf(fd.Name.Pos(), "exported %s performs I/O through %s (%s) but accepts no context.Context and has no %sContext variant", name, helper, io, fd.Name.Name)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				if isPkgLevelFunc(fn, "context", "Background") || isPkgLevelFunc(fn, "context", "TODO") {
					if !isWrapper {
						pass.Reportf(call.Pos(), "context.%s synthesized in library code: thread the caller's context (only the %sContext wrapper pattern is exempt)", fn.Name(), name)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// hasCtxParam reports whether fd accepts a context.Context parameter.
func hasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.TypesInfo.Types[field.Type].Type) {
			return true
		}
	}
	return false
}

// helperIOCall scans a body for a call to a function that itself
// performs direct I/O — one level of helper indirection, resolved
// against this package's ioOf map or an imported directIOFact. The
// first match (in source order) names the helper for the diagnostic.
// Goroutine bodies are skipped: their I/O is not on this function's
// synchronous path.
func helperIOCall(pass *Pass, body *ast.BlockStmt, ioOf map[FactKey]string) (helper, desc string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			key, ok := FuncKey(fn)
			if !ok {
				return true
			}
			if d, ok := ioOf[key]; ok {
				helper, desc = funcDisplay(pass, fn, key), d
				return false
			}
			if key.Pkg != pass.Pkg.Path() {
				var f directIOFact
				if pass.ImportFact(key, &f) {
					helper, desc = funcDisplay(pass, fn, key), f.Desc
					return false
				}
			}
		}
		return true
	})
	return helper, desc
}

// directIOCall scans a body for calls that perform network or stream
// I/O directly, returning a short description of the first one found.
// The deeper transitive chain is deliberately out of scope: the context
// rule targets the function that owns the connection and its immediate
// exported wrappers, not every distant caller (which locksafe's
// netIOFact chain already covers for the lock invariant).
func directIOCall(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc := ioCallDesc(pass.TypesInfo, call); desc != "" {
			found = desc
			return false
		}
		return true
	})
	return found
}

// blockingConnMethods are the net.Conn / net.Listener operations that
// block on the network. Deadline setters and Close are excluded: they
// return immediately.
var blockingConnMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true,
}

// streamReader names the reader handed to io.ReadFull or io.ReadAtLeast
// when its static type is one that waits on a peer — a bufio.Reader, the
// way a connection is read frame by frame, or a connection itself — and
// is "" otherwise (an io.Reader could be either, and stays unflagged).
func streamReader(t types.Type) string {
	switch {
	case typeIsFromPkg(t, "bufio", "Reader"):
		return "bufio.Reader"
	case isNetConnLike(t):
		return "net.Conn"
	}
	return ""
}

// ioCallDesc classifies a call as direct I/O, returning a description
// ("net.Dial", "net.Conn.Write", "io.ReadFull over bufio.Reader", ...) or
// "".
func ioCallDesc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			if fn.Pkg().Path() == "net" && strings.HasPrefix(fn.Name(), "Dial") {
				return "net." + fn.Name()
			}
			if fn.Pkg().Path() == "net" && fn.Name() == "Listen" {
				return "net.Listen"
			}
			if fn.Pkg().Path() == "io" && (fn.Name() == "ReadFull" || fn.Name() == "ReadAtLeast") && len(call.Args) > 0 {
				if src := streamReader(info.TypeOf(call.Args[0])); src != "" {
					return "io." + fn.Name() + " over " + src
				}
			}
			return ""
		}
		recv := receiverType(fn)
		switch {
		case isNetConnLike(recv) && blockingConnMethods[fn.Name()]:
			return "net.Conn." + fn.Name()
		case typeIsFromPkg(recv, "encoding/json", "Encoder", "Decoder") &&
			(fn.Name() == "Encode" || fn.Name() == "Decode"):
			return "json." + namedOf(recv).Obj().Name() + "." + fn.Name()
		case typeIsFromPkg(recv, "bufio", "Writer") && fn.Name() == "Flush":
			return "bufio.Writer.Flush"
		case typeIsFromPkg(recv, "bufio", "Reader") && strings.HasPrefix(fn.Name(), "Read"):
			return "bufio.Reader." + fn.Name()
		}
		return ""
	}
	// Dynamic calls through func-typed fields: dialer hooks and friends.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if strings.EqualFold(sel.Sel.Name, "dial") {
			return "a dial hook"
		}
	}
	return ""
}

// isNetConnLike reports whether t is a type from package net, or an
// interface carrying read+write deadline setters (structurally a
// net.Conn / net.PacketConn, including wrappers like faultnet's).
func isNetConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if typeIsFromPkg(t, "net") {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	hasRead, hasWrite := false, false
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "SetReadDeadline":
			hasRead = true
		case "SetWriteDeadline":
			hasWrite = true
		}
	}
	return hasRead && hasWrite
}
