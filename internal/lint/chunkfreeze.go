// ChunkFreeze: flow-sensitive enforcement of the storage seal contract —
// chunks are writable between allocation and their freeze call, and frozen
// views are never written. Abstract state per variable: unknown (untracked),
// mutable (freshly allocated this function), or frozen (result of
// Chunk.frozen / SnapshotChunks / ScanChunks / Vec.Frozen, a read of
// tableView.frozen, or — outside internal/storage — any chunk-typed
// parameter, since consumers only ever receive frozen views). Joins take the
// maximum, so a value frozen on any path is frozen. Writes through a frozen
// root (field/index assigns, IncDec, append/copy into its backing,
// designated mutator methods like AppendValue) are findings.
// Inside internal/storage, passing a frozen value to a module-internal
// callee not certified read-only by the summary table is also a finding;
// other packages only get the direct-write and known-mutator rules, because
// the seal contract's owner is storage.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// ChunkFreeze proves frozen chunks are only written pre-freeze.
var ChunkFreeze = &Analyzer{
	Name: "chunk-freeze",
	Doc:  "frozen storage chunks are never written after their freeze call",
	Run:  runChunkFreeze,
}

type chunkState uint8

const (
	chunkUnknown chunkState = iota
	chunkMutable
	chunkFrozen
)

// frozenReturning maps callees to the result indices that are frozen views.
var frozenReturning = map[string][]int{
	"repro/internal/storage.(Chunk).frozen":             {0},
	"repro/internal/storage.(TableData).SnapshotChunks": {0},
	"repro/internal/storage.(Store).ScanChunks":         {0},
	"repro/internal/sqltypes.(Vec).Frozen":              {0},
}

func runChunkFreeze(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		forEachFuncBody(f, func(name string, ft *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
			out = append(out, chunkFreezeFunc(p, name, ft, recv, body)...)
		})
	}
	return out
}

// isChunkish reports whether t is a module-internal Chunk (or pointer/slice
// of it). Matching by name keeps fixture packages — which declare their own
// stand-in Chunk under a repro/... path — under the same rule.
func isChunkish(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			return obj != nil && obj.Name() == "Chunk" && obj.Pkg() != nil && isModulePath(obj.Pkg().Path())
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return false
		}
	}
}

// chunkFacts is the per-point variable→state map.
type chunkFacts struct {
	st map[types.Object]chunkState
}

func newChunkFacts() *chunkFacts { return &chunkFacts{st: map[types.Object]chunkState{}} }

func (s *chunkFacts) cloneState() flowState {
	n := newChunkFacts()
	for k, v := range s.st {
		n.st[k] = v
	}
	return n
}

func (s *chunkFacts) joinFrom(src flowState) bool {
	o := src.(*chunkFacts)
	changed := false
	for k, v := range o.st {
		if s.st[k] < v {
			s.st[k] = v
			changed = true
		}
	}
	return changed
}

func chunkFreezeFunc(p *Package, name string, ft *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) []Finding {
	// Cheap pre-scan: anything chunk-typed in here at all?
	touches := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := p.Info.Types[e]; ok && tv.Type != nil && isChunkish(tv.Type) {
				touches = true
			}
		}
		return !touches
	})
	if !touches {
		return nil
	}

	aliases := buildAliases(p.Info, body)
	g := buildCFG(body)
	entry := newChunkFacts()
	// Outside storage, chunk-typed parameters (and receivers) are frozen
	// views — consumers only ever receive snapshots. Locals start unknown;
	// allocations and freeze calls set their states flow-sensitively.
	inStorage := p.Path == "repro/internal/storage"
	if !inStorage {
		seed := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, fld := range fl.List {
				for _, id := range fld.Names {
					o := p.Info.Defs[id]
					if v, ok := o.(*types.Var); ok && isChunkish(v.Type()) {
						entry.st[o] = chunkFrozen
					}
				}
			}
		}
		seed(ft.Params)
		seed(recv)
	}

	transfer := func(emit func(n ast.Node, format string, args ...any)) transferFn {
		return func(n ast.Node, st flowState) flowState {
			s := st.(*chunkFacts)
			if emit != nil {
				checkFrozenWrites(p, aliases, s, n, inStorage, emit)
			}
			applyChunkTransfer(p, s, n)
			return s
		}
	}

	in := forward(g, entry, transfer(nil))
	var out []Finding
	emit := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:     p.Fset.Position(n.Pos()),
			Message: name + ": " + fmt.Sprintf(format, args...),
		})
	}
	for i, b := range g.blocks {
		if in[i] == nil {
			continue
		}
		blockOutState(b, in[i], transfer(emit))
	}
	return out
}

// exprChunkState classifies the state a single-value expression confers on
// its assignee.
func exprChunkState(p *Package, s *chunkFacts, e ast.Expr) chunkState {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := rootObj(p.Info, x); o != nil {
			return s.st[o]
		}
	case *ast.UnaryExpr:
		return exprChunkState(p, s, x.X)
	case *ast.CompositeLit:
		if tv, ok := p.Info.Types[x]; ok && tv.Type != nil && isChunkish(tv.Type) {
			return chunkMutable
		}
	case *ast.SelectorExpr:
		// A read of tableView.frozen (or any field literally named
		// "frozen" on a module-internal type) yields a frozen view.
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal &&
			x.Sel.Name == "frozen" && isModulePath(pkgPathOfType(sel.Recv())) {
			return chunkFrozen
		}
	case *ast.CallExpr:
		if isBuiltin(p.Info, x, "new") || isBuiltin(p.Info, x, "make") {
			return chunkMutable
		}
		if f := calleeOf(p.Info, x); f != nil && slices.Contains(frozenReturning[funcKey(f)], 0) {
			return chunkFrozen
		}
	}
	return chunkUnknown
}

func pkgPathOfType(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// applyChunkTransfer updates variable states across one node.
func applyChunkTransfer(p *Package, s *chunkFacts, n ast.Node) {
	asn, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	setBare := func(l ast.Expr, st chunkState) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			return
		}
		o := rootObj(p.Info, id)
		if o == nil {
			return
		}
		if st == chunkUnknown {
			delete(s.st, o)
		} else {
			s.st[o] = st
		}
	}
	if len(asn.Rhs) == 1 && len(asn.Lhs) > 1 {
		// Tuple assign from one call: per-result classification.
		if call, ok := ast.Unparen(asn.Rhs[0]).(*ast.CallExpr); ok {
			var frozenIdx []int
			if f := calleeOf(p.Info, call); f != nil {
				frozenIdx = frozenReturning[funcKey(f)]
			}
			for i, l := range asn.Lhs {
				if slices.Contains(frozenIdx, i) {
					setBare(l, chunkFrozen)
				} else {
					setBare(l, chunkUnknown)
				}
			}
		}
		return
	}
	if len(asn.Lhs) == len(asn.Rhs) {
		for i := range asn.Lhs {
			setBare(asn.Lhs[i], exprChunkState(p, s, asn.Rhs[i]))
		}
	}
}

// effectiveState is the class-max state of a root's alias class.
func effectiveState(s *chunkFacts, aliases *aliasSets, o types.Object) chunkState {
	st := s.st[o]
	for _, m := range aliases.classOf(o) {
		if s.st[m] > st {
			st = s.st[m]
		}
	}
	return st
}

// checkFrozenWrites reports writes through frozen roots at one node.
func checkFrozenWrites(p *Package, aliases *aliasSets, s *chunkFacts, n ast.Node, strictCalls bool, emit func(ast.Node, string, ...any)) {
	frozenRoot := func(e ast.Expr) (types.Object, bool) {
		o := rootObj(p.Info, e)
		if o == nil {
			return nil, false
		}
		return o, effectiveState(s, aliases, o) == chunkFrozen
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if _, bare := ast.Unparen(l).(*ast.Ident); bare {
				continue
			}
			if o, fr := frozenRoot(l); fr {
				emit(l, "write through %s after freeze", o.Name())
			}
		}
	case *ast.IncDecStmt:
		if _, bare := ast.Unparen(n.X).(*ast.Ident); !bare {
			if o, fr := frozenRoot(n.X); fr {
				emit(n, "write through %s after freeze", o.Name())
			}
		}
	}
	inspectShallow(n, func(call *ast.CallExpr) {
		switch {
		case isBuiltin(p.Info, call, "append"), isBuiltin(p.Info, call, "copy"):
			if len(call.Args) > 0 {
				if o, fr := frozenRoot(call.Args[0]); fr {
					emit(call, "append/copy into frozen %s", o.Name())
				}
			}
			return
		case isBuiltin(p.Info, call, "delete"), isBuiltin(p.Info, call, "clear"):
			if len(call.Args) > 0 {
				if o, fr := frozenRoot(call.Args[0]); fr {
					emit(call, "mutation of frozen %s", o.Name())
				}
			}
			return
		}
		if harmlessCall(p.Info, call) {
			return
		}
		f := calleeOf(p.Info, call)
		known := false
		if f != nil {
			_, known = calleeFacts[funcKey(f)]
			if !known {
				pkg := ""
				if f.Pkg() != nil {
					pkg = f.Pkg().Path()
				}
				// Stdlib defaults are known-enough.
				known = !isModulePath(pkg)
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if selInfo, ok := p.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
				if o, fr := frozenRoot(sel.X); fr {
					if calleeEffectOn(f, -1) && (known || strictCalls) {
						emit(call, "frozen %s passed as receiver to %s, which may mutate it", o.Name(), calleeName(f, call))
					}
				}
			}
		}
		for i, arg := range call.Args {
			tv, ok := p.Info.Types[arg]
			if !ok || tv.Type == nil || !isChunkish(tv.Type) {
				continue
			}
			if o, fr := frozenRoot(arg); fr && calleeEffectOn(f, i) && (known || strictCalls) {
				emit(call, "frozen %s passed to %s, which is not certified read-only", o.Name(), calleeName(f, call))
			}
		}
	})
}

// ---- aliases ----
//
// Aliases are tracked with a flow-insensitive union-find over the function:
// plain assignments, &x, composite literals mentioning a root, builtin append
// pass-through, and range binds all merge classes; call results are assumed
// fresh (constructors dominate; an identity-returning helper would be a blind
// spot, noted in DESIGN.md §11).

// aliasSets is the union-find over a function's variables.
type aliasSets struct {
	parent map[types.Object]types.Object
}

func newAliasSets() *aliasSets { return &aliasSets{parent: map[types.Object]types.Object{}} }

func (a *aliasSets) find(o types.Object) types.Object {
	p, ok := a.parent[o]
	if !ok || p == o {
		return o
	}
	r := a.find(p)
	a.parent[o] = r
	return r
}

func (a *aliasSets) union(x, y types.Object) {
	rx, ry := a.find(x), a.find(y)
	if rx != ry {
		a.parent[rx] = ry
	}
}

// classOf returns every known object in o's alias class (including o).
func (a *aliasSets) classOf(o types.Object) []types.Object {
	root := a.find(o)
	out := []types.Object{o}
	for k := range a.parent {
		if k != o && a.find(k) == root {
			out = append(out, k)
		}
	}
	return out
}

// aliasRoots collects the identifiers in e whose memory the value of e may
// share: idents through selectors/indexes/addr-of/slices, composite-literal
// elements, and builtin append pass-through. Call results are assumed fresh.
func aliasRoots(info *types.Info, e ast.Expr, out []types.Object) []types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if o := info.Uses[x]; o != nil {
			if _, ok := o.(*types.Var); ok {
				out = append(out, o)
			}
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		if o := rootObj(info, e); o != nil {
			out = append(out, o)
		}
	case *ast.ParenExpr:
		out = aliasRoots(info, x.X, out)
	case *ast.UnaryExpr:
		out = aliasRoots(info, x.X, out)
	case *ast.TypeAssertExpr:
		out = aliasRoots(info, x.X, out)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = aliasRoots(info, el, out)
		}
	case *ast.CallExpr:
		if isBuiltin(info, x, "append") {
			for _, arg := range x.Args {
				out = aliasRoots(info, arg, out)
			}
		}
	}
	return out
}

// buildAliases runs the flow-insensitive alias pass over a body.
func buildAliases(info *types.Info, body *ast.BlockStmt) *aliasSets {
	a := newAliasSets()
	link := func(lhs ast.Expr, rhs ast.Expr) {
		l := rootObj(info, lhs)
		if l == nil {
			return
		}
		for _, r := range aliasRoots(info, rhs, nil) {
			a.union(l, r)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					link(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					link(vs.Names[i], vs.Values[i])
				}
			}
		case *ast.RangeStmt:
			// Key/value bind aliases the ranged container's memory.
			if n.Value != nil {
				link(n.Value, n.X)
			}
			if n.Key != nil {
				link(n.Key, n.X)
			}
		}
		return true
	})
	return a
}
