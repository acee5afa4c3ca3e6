// Forward dataflow over the CFG: a worklist iteration to fixpoint with
// analysis-defined join and transfer. States are finite sets keyed by
// types.Object identity (chunk seal states), so termination follows from
// monotone joins over a finite lattice.
package lint

import "go/ast"

// flowState is one analysis's per-program-point fact set.
type flowState interface {
	// cloneState returns an independent copy the transfer function may
	// mutate freely.
	cloneState() flowState
	// joinFrom merges src into the receiver, reporting whether the
	// receiver changed. src is never mutated.
	joinFrom(src flowState) bool
}

// transferFn advances the state across one block node. It may mutate and
// must return the state (same or replacement).
type transferFn func(n ast.Node, st flowState) flowState

// forward iterates the CFG to fixpoint and returns each block's in-state
// (nil for blocks never reached from entry).
func forward(c *cfg, entry flowState, transfer transferFn) []flowState {
	in := make([]flowState, len(c.blocks))
	if len(c.blocks) == 0 {
		return in
	}
	in[c.entry.idx] = entry.cloneState()
	work := []*block{c.entry}
	onWork := make([]bool, len(c.blocks))
	onWork[c.entry.idx] = true
	for iter := 0; len(work) > 0; iter++ {
		if iter > 64*len(c.blocks)+1024 {
			// Safety valve: a non-monotone transfer would loop forever;
			// bail with whatever states have settled.
			break
		}
		b := work[0]
		work = work[1:]
		onWork[b.idx] = false
		st := in[b.idx].cloneState()
		for _, n := range b.nodes {
			st = transfer(n, st)
		}
		for _, s := range b.succs {
			if in[s.idx] == nil {
				in[s.idx] = st.cloneState()
			} else if !in[s.idx].joinFrom(st) {
				continue
			}
			if !onWork[s.idx] {
				onWork[s.idx] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// blockOutState replays the transfer over one block from its in-state,
// returning the out-state — used by reporting passes that need the state at
// a block's exit (e.g. locks still held at a return).
func blockOutState(b *block, in flowState, transfer transferFn) flowState {
	st := in.cloneState()
	for _, n := range b.nodes {
		st = transfer(n, st)
	}
	return st
}
