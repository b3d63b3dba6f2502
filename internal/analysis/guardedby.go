package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces //md:guardedby mutex annotations: a struct field
// annotated `//md:guardedby <mu>` names a sibling sync.Mutex or
// sync.RWMutex field that must be held whenever the annotated field is
// accessed. Reads are legal under RLock or Lock; writes (assignments,
// ++/--, taking the address, mutating through an index) require the
// exclusive Lock.
//
// The checker walks each function body as straight-line flow: X.Lock()
// and X.RLock() acquire, X.Unlock()/X.RUnlock() release, `defer
// X.Unlock()` holds the lock to the end of the function, and `if
// X.TryLock() { ... }` holds it inside the then-branch. Branch bodies
// (if/for/switch/select) are analyzed with a copy of the held set, so
// acquisitions inside a branch do not leak past it. Function literals
// are analyzed with an empty held set (a closure runs on its own
// schedule).
//
// Lock state flows through calls: a function annotated `//md:locked
// <mu>` is analyzed with the receiver's mutex held at entry, and every
// call site of it must hold that mutex. Accesses through a freshly
// constructed local (assigned a composite literal in the same function,
// the single-owner construction phase) are exempt. One finding is
// waived with `//md:nolock <why>` on its line (or above); a whole
// function is waived by `//md:nolock <why>` in its doc comment.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated //md:guardedby <mu> must only be accessed with that mutex held",
	Run:  runGuardedBy,
}

type lockMode int

const (
	modeRead  lockMode = iota // RLock held: reads only
	modeWrite                 // exclusive Lock held
)

// lockSet maps a mutex expression rendering ("r.mu") to the mode held.
type lockSet map[string]lockMode

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// guardInfo is one //md:guardedby annotation: the named sibling mutex.
type guardInfo struct {
	mu string
}

type gbChecker struct {
	pass *Pass
	pkg  *Package
	// guarded maps annotated field objects to their guard.
	guarded map[*types.Var]guardInfo
	// locked maps functions annotated //md:locked to the mutex names the
	// caller must hold.
	locked map[*types.Func][]string
}

func runGuardedBy(pass *Pass) error {
	c := &gbChecker{
		pass:    pass,
		pkg:     pass.Pkg,
		guarded: map[*types.Var]guardInfo{},
		locked:  map[*types.Func][]string{},
	}
	c.collect()
	if len(c.guarded) == 0 && len(c.locked) == 0 {
		return nil
	}
	for _, file := range c.pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// collect indexes the //md:guardedby fields (validating that each names
// a sibling mutex) and the //md:locked functions of the package.
func (c *gbChecker) collect() {
	fset := c.pass.Program.Fset
	for _, file := range c.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				arg, ok := c.pkg.DirectiveArg(fset, field, DirGuardedBy)
				if !ok {
					continue
				}
				if arg == "" {
					c.pass.Reportf(field.Pos(), "//md:guardedby needs the name of the sibling mutex field")
					continue
				}
				muName := strings.Fields(arg)[0]
				if !structHasMutexField(c.pkg, st, muName) {
					c.pass.Reportf(field.Pos(), "//md:guardedby %s: no sibling sync.Mutex/RWMutex field named %q", muName, muName)
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.pkg.Info.Defs[name].(*types.Var); ok {
						c.guarded[v] = guardInfo{mu: muName}
					}
				}
			}
			return true
		})
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			arg, ok := c.pkg.FuncDirectiveArg(fset, fd, DirLocked)
			if !ok {
				continue
			}
			if arg == "" {
				c.pass.Reportf(fd.Pos(), "//md:locked needs the name(s) of the mutex the caller holds")
				continue
			}
			if fn, ok := c.pkg.Info.Defs[fd.Name].(*types.Func); ok {
				c.locked[fn] = strings.Fields(arg)
			}
		}
	}
}

// structHasMutexField reports whether the struct literally declares a
// sync.Mutex / sync.RWMutex (or pointer to one) field with the name.
func structHasMutexField(pkg *Package, st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return isMutexType(pkg.Info.TypeOf(f.Type))
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// gbFunc analyzes one function body.
type gbFunc struct {
	c     *gbChecker
	fresh map[types.Object]bool // locals assigned a composite literal here
}

func (c *gbChecker) checkFunc(fd *ast.FuncDecl) {
	fset := c.pass.Program.Fset
	if reason, ok := c.pkg.FuncDirectiveArg(fset, fd, DirNoLock); ok {
		if reason == "" {
			c.pass.Reportf(fd.Pos(), "//md:nolock waiver without justification: state why the function runs unlocked")
		}
		return // whole function waived (single-owner phase)
	}
	g := &gbFunc{c: c, fresh: collectFreshLocals(c.pkg, fd.Body)}
	held := lockSet{}
	// //md:locked: the caller holds the named mutexes of the receiver.
	if arg, ok := c.pkg.FuncDirectiveArg(fset, fd, DirLocked); ok && arg != "" {
		recv := ""
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			recv = fd.Recv.List[0].Names[0].Name
		}
		for _, mu := range strings.Fields(arg) {
			key := mu
			if !strings.Contains(mu, ".") && recv != "" {
				key = recv + "." + mu
			}
			held[key] = modeWrite
		}
	}
	g.walkBlock(fd.Body, held)
}

// collectFreshLocals finds locals bound to a composite literal (or its
// address, or new(T)) anywhere in the body: accesses through them are
// the single-owner construction phase and exempt from lock checks.
func collectFreshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
			rhs = u.X
		}
		switch r := rhs.(type) {
		case *ast.CompositeLit:
		case *ast.CallExpr:
			if id, ok := r.Fun.(*ast.Ident); !ok || id.Name != "new" {
				return
			}
		default:
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			fresh[obj] = true
		} else if obj := pkg.Info.Uses[id]; obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

func (g *gbFunc) walkBlock(b *ast.BlockStmt, held lockSet) {
	for _, s := range b.List {
		g.walkStmt(s, held)
	}
}

func (g *gbFunc) walkStmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := g.lockOp(s.X); ok {
			applyLockOp(held, key, op)
			return
		}
		g.checkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			g.checkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			g.checkLValue(lhs, held)
		}
	case *ast.IncDecStmt:
		g.checkLValue(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if _, op, ok := g.lockOp(s.Call); ok {
			// defer mu.Unlock(): the lock stays held to the end of the
			// function; defer mu.Lock() is nonsense we ignore.
			_ = op
			return
		}
		g.checkExpr(s.Call, held)
	case *ast.GoStmt:
		g.checkExpr(s.Call, held)
	case *ast.SendStmt:
		g.checkExpr(s.Chan, held)
		g.checkExpr(s.Value, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			g.checkExpr(r, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			g.walkStmt(s.Init, held)
		}
		thenHeld := held.clone()
		if key, mode, ok := g.tryLockCond(s.Cond); ok {
			thenHeld[key] = mode
		} else {
			g.checkExpr(s.Cond, held)
		}
		g.walkBlock(s.Body, thenHeld)
		if s.Else != nil {
			g.walkStmt(s.Else, held.clone())
		}
	case *ast.BlockStmt:
		g.walkBlock(s, held)
	case *ast.ForStmt:
		h := held.clone()
		if s.Init != nil {
			g.walkStmt(s.Init, h)
		}
		if s.Cond != nil {
			g.checkExpr(s.Cond, h)
		}
		g.walkBlock(s.Body, h)
		if s.Post != nil {
			g.walkStmt(s.Post, h)
		}
	case *ast.RangeStmt:
		g.checkExpr(s.X, held)
		h := held.clone()
		if s.Key != nil {
			g.checkLValue(s.Key, h)
		}
		if s.Value != nil {
			g.checkLValue(s.Value, h)
		}
		g.walkBlock(s.Body, h)
	case *ast.SwitchStmt:
		h := held.clone()
		if s.Init != nil {
			g.walkStmt(s.Init, h)
		}
		if s.Tag != nil {
			g.checkExpr(s.Tag, h)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				ch := h.clone()
				for _, e := range cc.List {
					g.checkExpr(e, ch)
				}
				for _, st := range cc.Body {
					g.walkStmt(st, ch)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		h := held.clone()
		if s.Init != nil {
			g.walkStmt(s.Init, h)
		}
		g.walkStmt(s.Assign, h)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				ch := h.clone()
				for _, st := range cc.Body {
					g.walkStmt(st, ch)
				}
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				h := held.clone()
				if cc.Comm != nil {
					g.walkStmt(cc.Comm, h)
				}
				for _, st := range cc.Body {
					g.walkStmt(st, h)
				}
			}
		}
	case *ast.LabeledStmt:
		g.walkStmt(s.Stmt, held)
	}
}

type lockOpKind int

const (
	opLock lockOpKind = iota
	opRLock
	opUnlock
)

// lockOp recognizes X.Lock() / X.RLock() / X.Unlock() / X.RUnlock()
// calls on a sync mutex and returns the rendered mutex key.
func (g *gbFunc) lockOp(e ast.Expr) (key string, op lockOpKind, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	fn, isFn := calleeObject(g.c.pkg.Info, call.Fun).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", 0, false
	}
	return types.ExprString(sel.X), op, true
}

func applyLockOp(held lockSet, key string, op lockOpKind) {
	switch op {
	case opLock:
		held[key] = modeWrite
	case opRLock:
		if held[key] != modeWrite {
			held[key] = modeRead
		}
	case opUnlock:
		delete(held, key)
	}
}

// tryLockCond recognizes `if X.TryLock()` / `if X.TryRLock()`.
func (g *gbFunc) tryLockCond(cond ast.Expr) (key string, mode lockMode, ok bool) {
	call, isCall := cond.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	fn, isFn := calleeObject(g.c.pkg.Info, call.Fun).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	switch fn.Name() {
	case "TryLock":
		return types.ExprString(sel.X), modeWrite, true
	case "TryRLock":
		return types.ExprString(sel.X), modeRead, true
	}
	return "", 0, false
}

// checkExpr read-checks every guarded-field access in an expression
// tree, descends into locked-call flow, and analyzes closures with an
// empty held set.
func (g *gbFunc) checkExpr(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.walkBlock(n.Body, lockSet{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Address taken: the pointer can mutate the field later,
				// require the exclusive lock now.
				g.checkLValue(n.X, held)
				return false
			}
		case *ast.CallExpr:
			g.checkLockedCall(n, held)
		case *ast.SelectorExpr:
			g.checkSel(n, held, false)
		}
		return true
	})
}

// checkLValue write-checks an assignment target.
func (g *gbFunc) checkLValue(e ast.Expr, held lockSet) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		g.checkLValue(e.X, held)
	case *ast.SelectorExpr:
		g.checkSel(e, held, true)
		g.checkExpr(e.X, held)
	case *ast.IndexExpr:
		// Writing an element mutates the guarded container.
		g.checkLValue(e.X, held)
		g.checkExpr(e.Index, held)
	case *ast.StarExpr:
		g.checkExpr(e.X, held)
	default:
		g.checkExpr(e, held)
	}
}

// checkSel verifies one selector access against the held set.
func (g *gbFunc) checkSel(sel *ast.SelectorExpr, held lockSet, write bool) {
	v, ok := g.c.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	// A field of a generic struct is a distinct object per
	// instantiation; Origin maps it back to the annotated declaration.
	gi, guarded := g.c.guarded[v.Origin()]
	if !guarded {
		return
	}
	if g.isFresh(sel.X) {
		return
	}
	key := types.ExprString(sel.X) + "." + gi.mu
	mode, isHeld := held[key]
	if write {
		if isHeld && mode == modeWrite {
			return
		}
	} else if isHeld {
		return
	}
	if g.c.pass.checkWaiver(g.c.pkg, sel.Pos(), DirNoLock) {
		return
	}
	what := types.ExprString(sel.X) + "." + sel.Sel.Name
	switch {
	case write && isHeld:
		g.c.pass.Reportf(sel.Pos(), "write to %s guarded by %s, but only the read lock is held", what, key)
	case write:
		g.c.pass.Reportf(sel.Pos(), "write to %s requires %s held exclusively (//md:guardedby)", what, key)
	default:
		g.c.pass.Reportf(sel.Pos(), "access to %s requires %s held (//md:guardedby)", what, key)
	}
}

// checkLockedCall requires the mutexes named by a callee's //md:locked
// annotation to be held at the call site.
func (g *gbFunc) checkLockedCall(call *ast.CallExpr, held lockSet) {
	fn, ok := calleeObject(g.c.pkg.Info, call.Fun).(*types.Func)
	if !ok {
		return
	}
	mus, ok := g.c.locked[fn]
	if !ok {
		return
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	base := ""
	if isSel {
		if g.isFresh(sel.X) {
			return
		}
		base = types.ExprString(sel.X)
	}
	for _, mu := range mus {
		key := mu
		if !strings.Contains(mu, ".") && base != "" {
			key = base + "." + mu
		}
		if _, isHeld := held[key]; isHeld {
			continue
		}
		if g.c.pass.checkWaiver(g.c.pkg, call.Pos(), DirNoLock) {
			return
		}
		g.c.pass.Reportf(call.Pos(), "call to %s requires %s held (//md:locked)", funcDisplayName(fn), key)
	}
}

// isFresh reports whether the access base is a local constructed in
// this very function (single-owner phase, not yet published).
func (g *gbFunc) isFresh(base ast.Expr) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := g.c.pkg.Info.Uses[id]
	if obj == nil {
		obj = g.c.pkg.Info.Defs[id]
	}
	return obj != nil && g.fresh[obj]
}
