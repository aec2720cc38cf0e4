package lint

// goroutine-lifecycle: every background goroutine must be stoppable. The
// repo's maintenance machinery — WPL installer, page cleaner, scrubber,
// archiver, standby applier — all follow one shape: a loop that selects
// on a stop channel (closed by Close/Stop) and returns. A loop that
// cannot reach its own exit outlives Close, keeps a *Server (and its
// store) alive, and races the next Restart in the crash harness, which
// reuses the same store in-process.
//
// Three checks, all at the spawn site (the `go` statement):
//
//   - exit reachability: the spawned body's CFG must have a path from
//     entry to exit. A condition-less `for {}` has no head→after edge
//     (cfg.go), so "this loop can only end via return/break" is a plain
//     reachability query. A body whose exit is unreachable can never be
//     stopped or joined.
//   - time.Tick: `for range time.Tick(d)` can never terminate (the
//     channel is never closed) and leaks the ticker besides; it is
//     flagged even though its CFG formally reaches the exit.
//   - stop-channel liveness: when the body receives from a channel field
//     of a module struct (the stop/done idiom), something in the module
//     must close or send on that field; a stop channel nothing ever
//     closes is a leak with extra steps.
//
// Bodies are found through the spawn: `go func() {...}()` literals and
// `go s.worker()` calls into module functions (analyzed once per spawn
// site, so the diagnostic lands where the leak starts).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroutines is the background-goroutine lifecycle analyzer.
type Goroutines struct{}

func (Goroutines) Name() string { return "goroutine-lifecycle" }
func (Goroutines) Doc() string {
	return "every background goroutine must be stoppable: reachable exit, no time.Tick loops, stop channels actually closed somewhere"
}

type goroutineChecker struct {
	m      *Module
	report Reporter
	sums   *summaries
	// closedFields: module struct channel fields that some close(x.f) or
	// x.f <- send touches, keyed "pkgpath.Type.field".
	closedFields map[string]bool
}

func (Goroutines) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &goroutineChecker{m: m, report: report, closedFields: make(map[string]bool)}
	c.sums = collectFuncs(m, pkgs, "goroutine-lifecycle", false)

	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if pkg.IsTestFile(file) {
				continue
			}
			c.indexCloses(pkg, file)
		}
	}

	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		ast.Inspect(mf.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.checkSpawn(mf.Pkg, g)
			}
			return true
		})
	}
}

// indexCloses records every close(x.f) and x.f <- v over module struct
// fields. Tests are excluded like everywhere else, but closes are also
// indexed from Close/Stop methods, which is where they live.
func (c *goroutineChecker) indexCloses(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if key, ok := c.fieldKey(pkg, x.Args[0]); ok {
					c.closedFields[key] = true
				}
			}
		case *ast.SendStmt:
			if key, ok := c.fieldKey(pkg, x.Chan); ok {
				c.closedFields[key] = true
			}
		}
		return true
	})
}

// fieldKey canonicalizes a selector over a module struct field.
func (c *goroutineChecker) fieldKey(pkg *Package, e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	named, ok := deref(tv.Type).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	p := named.Obj().Pkg().Path()
	if !pathIn(p, []string{c.m.Path}) {
		return "", false
	}
	return p + "." + named.Obj().Name() + "." + sel.Sel.Name, true
}

// checkSpawn analyzes one `go` statement.
func (c *goroutineChecker) checkSpawn(pkg *Package, g *ast.GoStmt) {
	var body *ast.BlockStmt
	bodyPkg := pkg
	switch fn := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fn.Body
	default:
		callee := resolveModuleCall(c.m, pkg, g.Call)
		if callee == nil {
			return // go http.Serve(...) etc.: not ours to judge
		}
		mf := c.sums.funcs[callee]
		if mf == nil || mf.Allowed {
			return
		}
		body = mf.Decl.Body
		bodyPkg = mf.Pkg
	}

	if findTickRange(body) != nil {
		c.report(pkg, g.Pos(), "background goroutine loops over time.Tick: the tick channel is never closed, so the loop (and its ticker) outlive Close — use a NewTicker with a stop channel and join on shutdown")
		return
	}

	cfg := buildCFG(body)
	if !cfg.ReachesExit()[cfg.Entry] {
		c.report(pkg, g.Pos(), "background goroutine can never terminate: no path from its loop reaches the function exit — select on a stop channel (closed on Close) and return")
		return
	}

	c.checkStopChannels(pkg, bodyPkg, g, body)
}

// findTickRange finds `for range time.Tick(...)` anywhere in the body.
func findTickRange(body *ast.BlockStmt) *ast.RangeStmt {
	var found *ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok || found != nil {
			return found == nil
		}
		if call, ok := r.X.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Tick" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
					found = r
				}
			}
		}
		return true
	})
	return found
}

// checkStopChannels verifies that every module channel field the body
// receives from is closed or sent to somewhere in the module.
func (c *goroutineChecker) checkStopChannels(pkg, bodyPkg *Package, g *ast.GoStmt, body *ast.BlockStmt) {
	reported := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var ch ast.Expr
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ch = x.X
			}
		case *ast.RangeStmt:
			if tv, ok := bodyPkg.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ch = x.X
				}
			}
		}
		if ch == nil {
			return true
		}
		key, ok := c.fieldKey(bodyPkg, ch)
		if !ok || reported[key] || c.closedFields[key] {
			return true
		}
		reported[key] = true
		c.report(pkg, g.Pos(), "background goroutine waits on %s, but nothing in the module ever closes or sends on it: the goroutine can never be stopped", key)
		return true
	})
}
