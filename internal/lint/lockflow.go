// Lock dataflow: the shared engine behind unlock-paths (every mutex acquired
// on a path is released on all CFG exits, with defer recognition covering
// panic unwinds) and the typed mutex-discipline analyzer (guarded fields are
// touched with the owning mutex in the must-held set).
//
// Lock identity is the access path of the mutex expression rooted at a
// types.Object — `t.mu`, `s.shards[i].mu`, `x.statusMu` — so two names for
// the same variable key identically and distinct stripes keyed through a
// local pointer stay distinct. Read locks key separately (suffix "/R").
//
// The state carries three sets: must-held (intersection join — what every
// path holds; authorizes guarded accesses), may-held (union join — what some
// path holds; a may-held lock with no deferred unlock at an exit is a leak),
// and deferred unlocks (union join; credited at every exit, including panic
// edges, because deferred calls run during unwind).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// UnlockPaths proves every acquired mutex is released on all exits.
var UnlockPaths = &Analyzer{
	Name: "unlock-paths",
	Doc:  "every mutex acquired on a path is released on all CFG exits",
	Run:  runUnlockPaths,
}

// MutexDiscipline enforces the typed locking contracts in lockSpecs:
// guarded-field access only with the owning mutex in the must-held set at
// that program point. Freshly allocated values are exempt (flow-based
// constructor ownership).
var MutexDiscipline = &Analyzer{
	Name: "mutex-discipline",
	Doc:  "guarded fields are touched with the owning mutex held (flow-sensitive)",
	Run:  runMutexDiscipline,
}

// lockFacts is the per-point lock state.
type lockFacts struct {
	must map[string]bool
	may  map[string]bool
	def  map[string]bool
}

func newLockFacts() *lockFacts {
	return &lockFacts{must: map[string]bool{}, may: map[string]bool{}, def: map[string]bool{}}
}

func (s *lockFacts) cloneState() flowState {
	n := newLockFacts()
	for k := range s.must {
		n.must[k] = true
	}
	for k := range s.may {
		n.may[k] = true
	}
	for k := range s.def {
		n.def[k] = true
	}
	return n
}

func (s *lockFacts) joinFrom(src flowState) bool {
	o := src.(*lockFacts)
	changed := false
	for k := range s.must {
		if !o.must[k] {
			delete(s.must, k)
			changed = true
		}
	}
	for k := range o.may {
		if !s.may[k] {
			s.may[k] = true
			changed = true
		}
	}
	for k := range o.def {
		if !s.def[k] {
			s.def[k] = true
			changed = true
		}
	}
	return changed
}

// exprKey renders an access path as a stable key rooted at the base object's
// declaration position, plus a display name for messages.
func exprKey(info *types.Info, e ast.Expr) (key, display string, ok bool) {
	var parts []string
	var disp []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			o := info.Uses[x]
			if o == nil {
				o = info.Defs[x]
			}
			if o == nil {
				return "", "", false
			}
			parts = append(parts, fmt.Sprintf("@%d", o.Pos()))
			disp = append(disp, x.Name)
			reverse(parts)
			reverse(disp)
			return strings.Join(parts, "."), strings.Join(disp, "."), true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			disp = append(disp, x.Sel.Name)
			e = x.X
		case *ast.IndexExpr:
			idx := "?"
			switch ie := ast.Unparen(x.Index).(type) {
			case *ast.BasicLit:
				idx = ie.Value
			case *ast.Ident:
				idx = ie.Name
			}
			parts = append(parts, "["+idx+"]")
			disp = append(disp, "["+idx+"]")
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", "", false
		}
	}
}

func reverse(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// lockOp classifies a call as a mutex operation on a sync.Mutex/RWMutex.
type lockOp struct {
	key     string // path key (with /R suffix for the read half)
	display string
	name    string // Lock, Unlock, RLock, RUnlock, TryLock, TryRLock
}

func mutexOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return lockOp{}, false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return lockOp{}, false
	}
	recv := typeKey(s.Recv())
	if recv != "sync.Mutex" && recv != "sync.RWMutex" {
		return lockOp{}, false
	}
	key, disp, ok := exprKey(info, sel.X)
	if !ok {
		return lockOp{}, false
	}
	op := lockOp{key: key, display: disp, name: sel.Sel.Name}
	if op.name == "RLock" || op.name == "RUnlock" || op.name == "TryRLock" {
		op.key += "/R"
		op.display += " (read)"
	}
	return op, true
}

// lockTransfer updates lock facts across one node. TryLock/TryRLock results
// are condition-dependent and the CFG does not model branch conditions, so
// they are ignored (documented in DESIGN.md §16).
func lockTransfer(info *types.Info, displays map[string]string) transferFn {
	return func(n ast.Node, st flowState) flowState {
		s := st.(*lockFacts)
		if d, ok := n.(*ast.DeferStmt); ok {
			// defer x.mu.Unlock() — or a deferred closure containing
			// unlocks — credits the release on every exit path.
			registerDeferredUnlocks(info, d, s, displays)
			return s
		}
		inspectShallow(n, func(call *ast.CallExpr) {
			op, ok := mutexOp(info, call)
			if !ok {
				return
			}
			displays[op.key] = op.display
			switch op.name {
			case "Lock", "RLock":
				s.must[op.key] = true
				s.may[op.key] = true
			case "Unlock", "RUnlock":
				delete(s.must, op.key)
				delete(s.may, op.key)
			}
		})
		return s
	}
}

// registerDeferredUnlocks records unlock calls appearing in a defer
// statement: direct method values and calls inside deferred closures.
func registerDeferredUnlocks(info *types.Info, d *ast.DeferStmt, s *lockFacts, displays map[string]string) {
	record := func(call *ast.CallExpr) {
		op, ok := mutexOp(info, call)
		if !ok {
			return
		}
		displays[op.key] = op.display
		if op.name == "Unlock" || op.name == "RUnlock" {
			s.def[op.key] = true
		}
	}
	record(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
}

func runUnlockPaths(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		forEachFuncBody(f, func(name string, _ *ast.FuncType, _ *ast.FieldList, body *ast.BlockStmt) {
			if !mentionsMutex(p.Info, body) {
				return
			}
			displays := map[string]string{}
			g := buildCFG(body)
			in := forward(g, newLockFacts(), lockTransfer(p.Info, displays))
			for i, b := range g.blocks {
				if in[i] == nil || !b.exit {
					continue
				}
				st := blockOutState(b, in[i], lockTransfer(p.Info, displays)).(*lockFacts)
				for k := range st.may {
					if st.def[k] {
						continue
					}
					pos := body.Pos()
					if b.last != nil {
						pos = b.last.Pos()
					}
					out = append(out, Finding{
						Pos: p.Fset.Position(pos),
						Message: fmt.Sprintf("%s: %s.Lock is not released on this exit path (no unlock or deferred unlock reaches it)",
							name, displays[k]),
					})
				}
			}
		})
	}
	return out
}

// mentionsMutex is the cheap pre-scan: any Lock/Unlock selector at all.
func mentionsMutex(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "Unlock", "RUnlock":
				found = true
			}
		}
		return !found
	})
	return found
}

func runMutexDiscipline(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, mutexDisciplineFunc(p, fd)...)
		}
	}
	return out
}

// freshAllocObjects collects locals assigned from a fresh allocation
// (composite literal, new, make) anywhere in the body — flow-insensitive
// constructor ownership: a value this function allocated is private until
// published, so its guarded fields need no lock.
func freshAllocObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	isFreshExpr := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, lit := ast.Unparen(x.X).(*ast.CompositeLit)
			return x.Op == token.AND && lit
		case *ast.CallExpr:
			return isBuiltin(info, x, "new") || isBuiltin(info, x, "make")
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		asn, ok := n.(*ast.AssignStmt)
		if !ok || len(asn.Lhs) != len(asn.Rhs) {
			return true
		}
		for i := range asn.Lhs {
			if !isFreshExpr(asn.Rhs[i]) {
				continue
			}
			if id, ok := ast.Unparen(asn.Lhs[i]).(*ast.Ident); ok {
				if o := rootObj(info, id); o != nil {
					fresh[o] = true
				}
			}
		}
		return true
	})
	return fresh
}

func mutexDisciplineFunc(p *Package, fd *ast.FuncDecl) []Finding {
	body := fd.Body
	fresh := freshAllocObjects(p.Info, body)

	displays := map[string]string{}
	g := buildCFG(body)
	in := forward(g, newLockFacts(), lockTransfer(p.Info, displays))

	var out []Finding
	emit := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:     p.Fset.Position(n.Pos()),
			Message: fd.Name.Name + ": " + fmt.Sprintf(format, args...),
		})
	}

	check := func(s *lockFacts, n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // closures are separate functions; see §16
			}
			sel, ok := m.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selInfo, ok := p.Info.Selections[sel]
			if !ok {
				return true
			}
			// Guarded plain fields need the mutex (either half) held, unless
			// this function allocated the value that owns them.
			spec := lockSpecs[typeKey(selInfo.Recv())]
			if selInfo.Kind() == types.FieldVal && slices.Contains(spec.guarded, sel.Sel.Name) {
				key, disp, ok := exprKey(p.Info, sel.X)
				if ok && !s.must[key+"."+spec.mutex] && !s.must[key+"."+spec.mutex+"/R"] &&
					!fresh[rootObj(p.Info, sel.X)] {
					emit(sel, "accesses %s.%s without holding %s.%s", disp, sel.Sel.Name, disp, spec.mutex)
				}
			}
			return true
		})
	}

	for i, b := range g.blocks {
		if in[i] == nil {
			continue
		}
		st := in[i].cloneState().(*lockFacts)
		tr := lockTransfer(p.Info, displays)
		for _, n := range b.nodes {
			check(st, n)
			st = tr(n, st).(*lockFacts)
		}
	}
	return out
}
