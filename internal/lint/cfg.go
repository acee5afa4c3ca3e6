// Control-flow graph construction over go/ast function bodies — stdlib only,
// no x/tools. Blocks hold statements (and branch-condition expressions) in
// execution order; edges cover if/for/range/switch/type-switch/select,
// labeled break/continue and goto; a return or a call to panic ends its block
// with no successor.
//
// Granularity is the statement: short-circuit && / || operands are not split
// into separate blocks, and function literals are not inlined — each FuncLit
// body is analyzed as its own function. Both limits are documented in
// DESIGN.md §11.
package lint

import (
	"go/ast"
	"go/token"
)

// block is one straight-line run of statements.
type block struct {
	idx   int
	nodes []ast.Node // Stmt and branch-condition Expr nodes in order
	succs []*block
}

// cfg is one function body's graph.
type cfg struct {
	blocks []*block
	entry  *block
}

type loopTargets struct {
	label string
	brk   *block // break target
	cont  *block // continue target (nil for switch/select)
}

type cfgBuilder struct {
	c            *cfg
	loops        []loopTargets
	labels       map[string]*block // goto / labeled-statement targets
	pendingLabel string            // label to stamp on the next loop frame
	gotos        []struct {
		from  *block
		label string
	}
}

// takeLabel consumes the pending label for the loop frame being pushed.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{c: &cfg{}, labels: map[string]*block{}}
	entry := b.newBlock()
	b.c.entry = entry
	b.stmts(body.List, entry)
	// Resolve pending gotos.
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.edge(g.from, t)
		}
	}
	return b.c
}

func (b *cfgBuilder) newBlock() *block {
	bl := &block{idx: len(b.c.blocks)}
	b.c.blocks = append(b.c.blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *block) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// stmts threads the statement list through cur, returning the live block at
// the end (nil when control cannot fall through).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *block) *block {
	for _, s := range list {
		cur = b.stmt(s, cur)
		if cur == nil {
			// Unreachable continuation: park remaining statements in a
			// predecessor-less block so they still get a (bottom-state)
			// pass and malformed code does not crash the builder.
			cur = b.newBlock()
		}
	}
	return cur
}

// stmt adds one statement to cur, returning the fall-through block (nil if
// control never falls through, e.g. after return).
func (b *cfgBuilder) stmt(s ast.Stmt, cur *block) *block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		return nil

	case *ast.BranchStmt:
		cur.nodes = append(cur.nodes, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findLoop(s.Label, true); t != nil {
				b.edge(cur, t)
			}
		case token.CONTINUE:
			if t := b.findLoop(s.Label, false); t != nil {
				b.edge(cur, t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, struct {
					from  *block
					label string
				}{cur, s.Label.Name})
			}
		case token.FALLTHROUGH:
			// Handled by the switch builder via the fall list.
		}
		return nil

	case *ast.LabeledStmt:
		// Start a fresh block so goto and labeled break/continue have a
		// stable target.
		target := b.newBlock()
		b.edge(cur, target)
		b.labels[s.Label.Name] = target
		return b.labeledStmt(s.Label.Name, s.Stmt, target)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenEnd := b.stmts(s.Body.List, thenB)
		join := b.newBlock()
		b.edge(thenEnd, join)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			b.edge(b.stmt(s.Else, elseB), join)
		} else {
			b.edge(cur, join)
		}
		return join // dead when both arms terminated, which is harmless

	case *ast.ForStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		post := b.newBlock()
		if s.Post != nil {
			post.nodes = append(post.nodes, s.Post)
		}
		b.edge(post, head)
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // cond may be false on entry
		}
		b.loops = append(b.loops, loopTargets{label: b.takeLabel(), brk: after, cont: post})
		bodyEnd := b.stmts(s.Body.List, body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyEnd, post)
		// for{} with no breaks leaves after unreachable; it is still the
		// fall-through, so downstream code stays simple.
		return after

	case *ast.RangeStmt:
		// Only the ranged expression enters the graph; the per-iteration
		// key/value bind is handled flow-insensitively by the alias pass.
		head := b.newBlock()
		head.nodes = append(head.nodes, s.X)
		b.edge(cur, head)
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		b.edge(head, after) // zero iterations
		b.loops = append(b.loops, loopTargets{label: b.takeLabel(), brk: after, cont: head})
		bodyEnd := b.stmts(s.Body.List, body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyEnd, head)
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(cur, s.Body.List, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(cur, s.Body.List, false)

	case *ast.SelectStmt:
		return b.switchClauses(cur, s.Body.List, true)

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isPanicCall(s.X) {
			return nil
		}
		return cur

	default:
		// Assign, IncDec, Send, Go, Defer, Decl, Empty: straight-line.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// labeledStmt handles `L: stmt` by marking L pending so the loop or switch
// frame stmt pushes picks it up, resolving `break L` / `continue L`.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt, cur *block) *block {
	b.pendingLabel = label
	out := b.stmt(s, cur)
	b.pendingLabel = ""
	return out
}

// findLoop resolves a break/continue target. isBreak selects the break
// target; otherwise the continue target (skipping switch/select frames).
func (b *cfgBuilder) findLoop(label *ast.Ident, isBreak bool) *block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lt := b.loops[i]
		if label != nil && lt.label != label.Name {
			continue
		}
		if isBreak {
			return lt.brk
		}
		if lt.cont != nil {
			return lt.cont
		}
	}
	return nil
}

// switchClauses wires case/comm clause bodies: every clause branches from
// cur and joins after; fallthrough chains into the next clause body. A
// missing default adds a direct cur→join edge.
func (b *cfgBuilder) switchClauses(cur *block, clauses []ast.Stmt, isSelect bool) *block {
	join := b.newBlock()
	swLabel := b.takeLabel()
	hasDefault := false
	// Build clause entry blocks first so fallthrough can target the next.
	entries := make([]*block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, cl := range clauses {
		entries[i] = b.newBlock()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				cur.nodes = append(cur.nodes, e)
			}
			bodies[i] = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				entries[i].nodes = append(entries[i].nodes, cl.Comm)
			}
			bodies[i] = cl.Body
		}
		b.edge(cur, entries[i])
	}
	for i := range clauses {
		b.loops = append(b.loops, loopTargets{label: swLabel, brk: join})
		start := entries[i]
		var body []ast.Stmt
		if isSelect {
			body = bodies[i]
		} else {
			// Split a trailing fallthrough off the body.
			body = bodies[i]
			if n := len(body); n > 0 {
				if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					body = body[:n-1]
					end := b.stmts(body, start)
					if end != nil && i+1 < len(entries) {
						b.edge(end, entries[i+1])
					}
					b.loops = b.loops[:len(b.loops)-1]
					continue
				}
			}
		}
		end := b.stmts(body, start)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(end, join)
	}
	if !hasDefault {
		b.edge(cur, join)
	}
	return join
}

// isPanicCall reports whether e is a direct call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
