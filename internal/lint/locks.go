package lint

// latch-order: enforces the DESIGN.md §S9 latch partial order,
//
//	ckptMu (level 0) → gate (1) → one buffer shard latch (2) →
//	{attMu | dptMu | wplMu | allocMu | scrubMu | decMu | state mu} (3) →
//	wal/store internals
//
// as a level graph. Each function body is abstractly interpreted in source
// order, tracking the multiset of held latches through branches, loops,
// defers and the s.enter()/exit() gate idiom; acquiring a latch whose level
// is below one already held, re-acquiring the (non-reentrant) gate, or
// holding two shard latches at once is a diagnostic. Lock acquisitions made
// by callees count too: every function gets a transitive "footprint" (the
// set of latch levels it may acquire), propagated to a fixed point across
// the whole module, and a call is checked against the caller's held set.
//
// Latches are recognized structurally, so the scratch fixtures exercise the
// same code paths as the real server:
//
//   - a sync.RWMutex field named "gate"            → level 1
//   - buffer.Sharded.Lock / *buffer.PoolShard      → level 2 (shard)
//   - sync.Mutex fields attMu/dptMu/wplMu/allocMu  → level 3 (leaf)
//   - post-PR-4 state mutexes: the server's scrubMu plus the "mu" fields of
//     repl.Primary, repl.Standby and archive.Archiver are held briefly with
//     nothing nested inside, so they sit at leaf level; ckptMu is the
//     opposite — checkpointFuzzy takes it BEFORE entering the gate — so it
//     gets its own outermost level above the gate
//   - a module function named "enter" returning func() acquires the gate;
//     calling the returned value releases it (the server's enter/exit pair)
//
// wal/store internal mutexes are innermost by construction and unmodeled.
// The multi-shard quiesced path (buffer.lockAll, index order under gate.W)
// carries a //qslint:allow latch-order annotation: an annotated function is
// skipped and its footprint treated as vouched for.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LatchOrder is the §S9 latch partial-order analyzer.
type LatchOrder struct{}

func (LatchOrder) Name() string { return "latch-order" }
func (LatchOrder) Doc() string {
	return "latch acquisition order must follow gate → one shard latch → leaf mutexes (DESIGN.md §S9)"
}

const (
	levelOuter = iota // coordination mutex held across the gate (ckptMu)
	levelGate
	levelShard
	levelLeaf
	numLevels
)

var levelName = [numLevels]string{"checkpoint coordination mutex", "session gate", "shard latch", "leaf mutex"}

var leafNames = map[string]bool{
	"attMu": true, "dptMu": true, "wplMu": true, "allocMu": true,
	// scrubMu (PR 5) guards only the scrub cursor and is held with nothing
	// else — leaf is its natural (most restrictive) slot.
	"scrubMu": true,
	// decMu guards the 2PC coordinator's decided-transaction table; it nests
	// inside attMu on the logDecision/Forget paths, and leaf mutexes are
	// unordered among themselves, so leaf is its slot too.
	"decMu": true,
}

// outerNames are coordination mutexes acquired BEFORE the session gate and
// held across it: checkpointFuzzy takes ckptMu, then enter()s the gate, then
// descends through shard latches. Anything already holding the gate (or
// below) must not acquire them.
var outerNames = map[string]bool{"ckptMu": true}

// leafMuTypes are module types whose "mu" field is a leaf-level state
// mutex: the repl primary/standby state, the archiver drain lock, and the
// shard router's membership table (held only around map bookkeeping, never
// across a Backend call — leaf is the slot that enforces exactly that).
var leafMuTypes = [][2]string{
	{"internal/repl", "Primary"},
	{"internal/repl", "Standby"},
	{"internal/archive", "Archiver"},
	{"internal/shard", "Router"},
}

// held is one latch currently held by the function under analysis.
type held struct {
	level int
	name  string // source expression ("s.gate", "s.attMu") or shard handle var
	pos   token.Pos
}

// event classifies one call expression.
type event struct {
	kind  int // evNone..evCall
	level int
	name  string
	fn    *types.Func // evCall
	pos   token.Pos
}

const (
	evNone = iota
	evAcquire
	evTryAcquire
	evRelease
	evShardLock // Sharded.Lock(pid) → *PoolShard; handle bound by assignment
	evEnter     // enter() idiom: acquires gate, returns the releaser
	evCall      // call to another module function (footprint check)
)

type latchChecker struct {
	latchClassifier
	report Reporter
	sums   *summaries
	foot   map[*types.Func]uint32 // 1<<level may be acquired by fn or its callees

	// per-function interpreter state
	pendingAssign string            // LHS name while scanning `x := <call>`
	releasers     map[string]string // releaser var → gate lock name it releases
}

func (LatchOrder) Check(m *Module, pkgs []*Package, report Reporter) {
	c := &latchChecker{latchClassifier: latchClassifier{m: m}, report: report}

	// Pass 1+2: per-function direct latch footprints, propagated over the
	// call graph by the shared summary layer (handles recursion).
	c.sums = collectFuncs(m, pkgs, "latch-order", false)
	seed := make(map[*types.Func]uint32, len(c.sums.funcs))
	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		var bits uint32
		ast.Inspect(mf.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch ev := c.classify(call); ev.kind {
			case evAcquire, evTryAcquire, evShardLock:
				bits |= 1 << ev.level
			case evEnter:
				bits |= 1 << levelGate
			}
			return true
		})
		seed[obj] = bits
	}
	c.foot = c.sums.propagateMay(seed)

	// Pass 3: abstract interpretation of every function body.
	for _, obj := range c.sums.order {
		mf := c.sums.funcs[obj]
		if mf.Allowed {
			continue
		}
		c.pkg = mf.Pkg
		c.releasers = make(map[string]string)
		c.walkStmts(mf.Decl.Body.List, &[]held{})
	}
}

// --- classification ---------------------------------------------------------

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// latchClassifier is the structural latch recognizer, shared by latch-order
// and latch-io: both need the same mapping from call expressions to latch
// events, applied per package under analysis.
type latchClassifier struct {
	m   *Module
	pkg *Package // package currently under analysis
}

func (c *latchClassifier) bufferPath() string { return c.m.Path + "/internal/buffer" }

func (c *latchClassifier) inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == c.m.Path || strings.HasPrefix(pkg.Path(), c.m.Path+"/"))
}

// leafMuLevel reports whether mutexExpr is the "mu" field of one of the
// leafMuTypes (repl primary/standby state, archiver drain lock).
func (c *latchClassifier) isLeafStateMu(fx *ast.SelectorExpr) bool {
	if fx.Sel.Name != "mu" {
		return false
	}
	tv, ok := c.pkg.Info.Types[fx.X]
	if !ok {
		return false
	}
	for _, lt := range leafMuTypes {
		if isNamedType(tv.Type, c.m.Path+"/"+lt[0], lt[1]) {
			return true
		}
	}
	return false
}

// classify maps a call expression to a latch event.
func (c *latchClassifier) classify(call *ast.CallExpr) event {
	pos := call.Pos()
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	var obj *types.Func
	if selOK {
		obj, _ = c.pkg.Info.Uses[sel.Sel].(*types.Func)
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		obj, _ = c.pkg.Info.Uses[id].(*types.Func)
	}

	if selOK {
		method := sel.Sel.Name
		switch method {
		case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
			recvTV, ok := c.pkg.Info.Types[sel.X]
			if !ok {
				break
			}
			rt := recvTV.Type
			if isNamedType(rt, c.bufferPath(), "Sharded") && method == "Lock" {
				return event{kind: evShardLock, level: levelShard, pos: pos}
			}
			if isNamedType(rt, c.bufferPath(), "PoolShard") {
				name := types.ExprString(sel.X)
				switch method {
				case "Unlock", "RUnlock":
					return event{kind: evRelease, level: levelShard, name: name, pos: pos}
				case "TryLock", "TryRLock":
					return event{kind: evTryAcquire, level: levelShard, name: name, pos: pos}
				default:
					return event{kind: evAcquire, level: levelShard, name: name, pos: pos}
				}
			}
			// Field-named sync mutexes: the receiver must itself be a field
			// selector (s.gate, q.attMu, ...).
			fx, ok2 := sel.X.(*ast.SelectorExpr)
			if !ok2 {
				break
			}
			ts := deref(rt).String()
			field := fx.Sel.Name
			level := -1
			switch {
			case field == "gate" && ts == "sync.RWMutex":
				level = levelGate
			case outerNames[field] && ts == "sync.Mutex":
				level = levelOuter
			case leafNames[field] && ts == "sync.Mutex":
				level = levelLeaf
			case ts == "sync.Mutex" && c.isLeafStateMu(fx):
				level = levelLeaf
			}
			if level < 0 {
				break
			}
			name := types.ExprString(sel.X)
			switch method {
			case "Unlock", "RUnlock":
				return event{kind: evRelease, level: level, name: name, pos: pos}
			case "TryLock", "TryRLock":
				return event{kind: evTryAcquire, level: level, name: name, pos: pos}
			default:
				return event{kind: evAcquire, level: level, name: name, pos: pos}
			}
		}
	}

	if obj == nil {
		if selOK {
			obj, _ = c.pkg.Info.Uses[sel.Sel].(*types.Func)
		} else if id, ok := call.Fun.(*ast.Ident); ok {
			if o := c.pkg.Info.Uses[id]; o != nil {
				obj, _ = o.(*types.Func)
			}
		}
	}
	if obj != nil && c.inModule(obj.Pkg()) {
		if obj.Name() == "enter" && returnsReleaser(obj) {
			return event{kind: evEnter, level: levelGate, pos: pos}
		}
		return event{kind: evCall, fn: obj, pos: pos}
	}
	return event{kind: evNone}
}

// returnsReleaser reports whether fn's signature is func(...) func().
func returnsReleaser(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && res.Params().Len() == 0 && res.Results().Len() == 0
}

// --- abstract interpretation ------------------------------------------------

func cloneHeld(h []held) *[]held {
	cp := append([]held(nil), h...)
	return &cp
}

func (c *latchChecker) line(p token.Pos) int { return c.m.Fset.Position(p).Line }

// acquire checks the new latch against everything held and records it.
func (c *latchChecker) acquire(ev event, st *[]held) {
	for _, h := range *st {
		switch {
		case h.name == ev.name && h.level == ev.level:
			c.report(c.pkg, ev.pos, "%s already held (acquired at line %d; the quiesce gate and leaf mutexes are not reentrant)",
				h.name, c.line(h.pos))
		case ev.level == levelShard && h.level == levelShard:
			c.report(c.pkg, ev.pos, "second shard latch acquired while holding one (line %d); never hold two shard latches outside the quiesced index-order path (DESIGN.md §S9)",
				c.line(h.pos))
		case h.level > ev.level:
			c.report(c.pkg, ev.pos, "%s (%s) acquired while holding %s (%s, line %d): inverts the §S9 latch order gate → shard → leaf",
				nameOrLevel(ev), levelName[ev.level], h.name, levelName[h.level], c.line(h.pos))
		case ev.level == levelGate && h.level == levelGate:
			c.report(c.pkg, ev.pos, "session gate acquired while already holding it (line %d): the gate is not reentrant", c.line(h.pos))
		}
	}
	*st = append(*st, held{level: ev.level, name: ev.name, pos: ev.pos})
}

func nameOrLevel(ev event) string {
	if ev.name != "" {
		return ev.name
	}
	return levelName[ev.level]
}

// release drops the most recent matching latch, if held.
func (c *latchChecker) release(ev event, st *[]held) {
	for i := len(*st) - 1; i >= 0; i-- {
		h := (*st)[i]
		if h.level == ev.level && (h.name == ev.name || ev.name == "") {
			*st = append((*st)[:i], (*st)[i+1:]...)
			return
		}
	}
}

// checkFootprint validates a call to a module function against the held set.
func (c *latchChecker) checkFootprint(ev event, st *[]held) {
	mf := c.sums.funcs[ev.fn]
	foot := c.foot[ev.fn]
	if mf == nil || mf.Allowed || foot == 0 {
		return
	}
	for lvl := 0; lvl < numLevels; lvl++ {
		if foot&(1<<lvl) == 0 {
			continue
		}
		for _, h := range *st {
			switch {
			case lvl == levelShard && h.level == levelShard:
				c.report(c.pkg, ev.pos, "call to %s, which acquires a shard latch, while already holding shard latch %s (line %d)",
					ev.fn.Name(), h.name, c.line(h.pos))
			case lvl == levelGate && h.level == levelGate:
				c.report(c.pkg, ev.pos, "call to %s, which acquires the session gate, while already holding it (line %d): the gate is not reentrant",
					ev.fn.Name(), c.line(h.pos))
			case h.level > lvl:
				c.report(c.pkg, ev.pos, "call to %s, which acquires a %s, while holding %s (%s, line %d): inverts the §S9 latch order",
					ev.fn.Name(), levelName[lvl], h.name, levelName[h.level], c.line(h.pos))
			}
		}
	}
}

// applyCall processes one call expression's latch effect.
func (c *latchChecker) applyCall(call *ast.CallExpr, st *[]held) {
	// Invocation of a bound releaser variable: exit().
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 0 {
		if gateName, ok := c.releasers[id.Name]; ok {
			c.release(event{level: levelGate, name: gateName}, st)
			return
		}
	}
	ev := c.classify(call)
	switch ev.kind {
	case evAcquire, evTryAcquire: // TryAcquire outside the if-idiom: assume success
		c.acquire(ev, st)
	case evRelease:
		c.release(ev, st)
	case evShardLock:
		name := c.pendingAssign
		if name == "" {
			name = "(unbound shard latch)"
		}
		ev.name = name
		c.acquire(ev, st)
	case evEnter:
		name := "gate (via enter)"
		c.acquire(event{kind: evAcquire, level: levelGate, name: name, pos: ev.pos}, st)
		if c.pendingAssign != "" {
			c.releasers[c.pendingAssign] = name
		}
	case evCall:
		c.checkFootprint(ev, st)
	}
}

// scanExpr processes latch effects of every call in e, in source order.
// Function literals get a fresh empty held set (they run on their own
// goroutine or at an unknown later point).
func (c *latchChecker) scanExpr(e ast.Expr, st *[]held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			saveRel := c.releasers
			c.releasers = make(map[string]string)
			c.walkStmts(x.Body.List, &[]held{})
			c.releasers = saveRel
			return false
		case *ast.CallExpr:
			c.applyCall(x, st)
			return true
		}
		return true
	})
}

// tryLockIf matches `if [!]x.TryLock() { ... }` and returns the event and
// whether the condition is negated.
func (c *latchChecker) tryLockIf(cond ast.Expr) (event, bool, bool) {
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		cond = u.X
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return event{}, false, false
	}
	ev := c.classify(call)
	if ev.kind != evTryAcquire {
		return event{}, false, false
	}
	return ev, negated, true
}

// walkStmts interprets a statement list; it reports whether control
// definitely leaves the enclosing function (return/branch).
func (c *latchChecker) walkStmts(list []ast.Stmt, st *[]held) bool {
	for _, s := range list {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *latchChecker) walkStmt(s ast.Stmt, st *[]held) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		c.scanExpr(x.X, st)
	case *ast.AssignStmt:
		// Bind `sh := s.pool.Lock(pid)` / `exit := s.enter()` handles.
		if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			if id, ok := x.Lhs[0].(*ast.Ident); ok {
				if _, isCall := x.Rhs[0].(*ast.CallExpr); isCall {
					c.pendingAssign = id.Name
				}
			}
		}
		for _, r := range x.Rhs {
			c.scanExpr(r, st)
		}
		c.pendingAssign = ""
		for _, l := range x.Lhs {
			c.scanExpr(l, st)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					if len(vs.Names) == 1 && len(vs.Values) == 1 {
						if _, isCall := vs.Values[0].(*ast.CallExpr); isCall {
							c.pendingAssign = vs.Names[0].Name
						}
					}
					for _, v := range vs.Values {
						c.scanExpr(v, st)
					}
					c.pendingAssign = ""
				}
			}
		}
	case *ast.DeferStmt:
		// defer s.enter()() / defer s.lockAll()(): the inner call runs NOW
		// (acquiring), the release runs at function end — held to the end.
		if inner, ok := x.Call.Fun.(*ast.CallExpr); ok {
			c.applyCall(inner, st)
			break
		}
		// defer mu.Unlock() / defer exit(): release at end; stays held here.
		ev := c.classify(x.Call)
		if ev.kind == evAcquire || ev.kind == evTryAcquire || ev.kind == evShardLock || ev.kind == evEnter {
			c.applyCall(x.Call, st) // defer mu.Lock() — degenerate but an acquisition
		}
		// evCall in a defer runs at an unknown lock state: skip.
	case *ast.GoStmt:
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			saveRel := c.releasers
			c.releasers = make(map[string]string)
			c.walkStmts(fl.Body.List, &[]held{})
			c.releasers = saveRel
		}
		for _, a := range x.Call.Args {
			c.scanExpr(a, st)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if ev, negated, ok := c.tryLockIf(x.Cond); ok && x.Else == nil {
			if negated {
				// if !TryLock { body runs unheld }; afterwards held either way.
				thenSt := cloneHeld(*st)
				c.walkStmts(x.Body.List, thenSt)
				c.acquire(ev, st)
			} else {
				// if TryLock { body runs held }; afterwards unheld.
				thenSt := cloneHeld(*st)
				c.acquire(ev, thenSt)
				c.walkStmts(x.Body.List, thenSt)
			}
			return false
		}
		c.scanExpr(x.Cond, st)
		thenSt := cloneHeld(*st)
		tTerm := c.walkStmts(x.Body.List, thenSt)
		if x.Else != nil {
			elseSt := cloneHeld(*st)
			var eTerm bool
			if blk, ok := x.Else.(*ast.BlockStmt); ok {
				eTerm = c.walkStmts(blk.List, elseSt)
			} else {
				eTerm = c.walkStmt(x.Else, elseSt)
			}
			switch {
			case tTerm && eTerm:
				return true
			case tTerm:
				*st = *elseSt
			case eTerm:
				*st = *thenSt
			default:
				*st = intersectHeld(*thenSt, *elseSt)
			}
			return false
		}
		if !tTerm {
			*st = intersectHeld(*st, *thenSt)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.scanExpr(x.Cond, st)
		c.loopBody(x.Body, x.Post, st)
	case *ast.RangeStmt:
		c.scanExpr(x.X, st)
		c.loopBody(x.Body, nil, st)
	case *ast.BlockStmt:
		return c.walkStmts(x.List, st)
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.scanExpr(x.Tag, st)
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				sub := cloneHeld(*st)
				c.walkStmts(clause.Body, sub)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				sub := cloneHeld(*st)
				c.walkStmts(clause.Body, sub)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				sub := cloneHeld(*st)
				c.walkStmts(clause.Body, sub)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.scanExpr(r, st)
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto: don't merge into fallthrough
	case *ast.LabeledStmt:
		return c.walkStmt(x.Stmt, st)
	case *ast.SendStmt:
		c.scanExpr(x.Chan, st)
		c.scanExpr(x.Value, st)
	case *ast.IncDecStmt:
		c.scanExpr(x.X, st)
	}
	return false
}

// loopBody interprets a loop body with a copy of the held set. A shard latch
// acquired inside the body and still held when the iteration ends would be a
// second shard latch on the next pass — exactly the "two shard latches"
// violation, reached via iteration rather than nesting.
func (c *latchChecker) loopBody(body *ast.BlockStmt, post ast.Stmt, st *[]held) {
	pre := make(map[string]bool, len(*st))
	for _, h := range *st {
		pre[h.name] = true
	}
	sub := cloneHeld(*st)
	c.walkStmts(body.List, sub)
	if post != nil {
		c.walkStmt(post, sub)
	}
	for _, h := range *sub {
		if h.level == levelShard && !pre[h.name] {
			c.report(c.pkg, h.pos, "shard latch %s acquired in a loop and still held at the end of the iteration: the next pass would hold two shard latches (quiesced multi-shard paths must latch in index order and carry //qslint:allow latch-order)", h.name)
		}
	}
	*st = *sub
}

// intersectHeld keeps latches held on both paths.
func intersectHeld(a, b []held) []held {
	inB := make(map[string]bool, len(b))
	for _, h := range b {
		inB[h.name+"\x00"+levelName[h.level]] = true
	}
	var out []held
	for _, h := range a {
		if inB[h.name+"\x00"+levelName[h.level]] {
			out = append(out, h)
		}
	}
	return out
}
