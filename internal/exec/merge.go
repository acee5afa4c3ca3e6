package exec

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// MergeSpec lays a summary table out for MergeGroups: per column its
// aggregate (COUNT, SUM, MIN or MAX; nil for a grouping column); the column of
// the COUNT(*) tracker, -1 for none; Scoped, the columns a delete cannot
// subtract from (MIN, MAX, SUM over nullable input).
type MergeSpec struct {
	Aggs    []*qgm.Agg
	Tracker int
	Scoped  []int
}

// GroupMerge is a summary table's next contents where deltas touched it: one
// group table, and per group its stored position (-1 when new) and flags.
type GroupMerge struct {
	t                      *groupTable
	specs                  []aggSpec
	keys, all, sub, scoped []int // grouping columns; aggregates: all, subtracted, scoped
	tracker                int   // its aggregate
	pos                    []int
	flags                  []uint8
	lost                   map[[2]int]sqltypes.Value // (group, aggregate) → stored value of a cell the delete side may have emptied
	v                      sqltypes.Vec
	kc                     []keyCol // each's strip: key columns, hashes, ordinals
	hash                   [stripRows]uint64
	ords                   [stripRows]uint32
	Merged, Added, Retired int // delta groups, as maintain's Stats count them
}

const (
	mRetired uint8 = 1 << iota
	mInserted
	mScoped
)

// MergeGroups folds a delete and an insert delta into a stored summary table,
// all three chunks in spec's layout: Gray et al.'s combine of distributive
// aggregates, retirement by Cohen & Nutt's COUNT(*) tracker. Delta keys go in
// through findBatch; the stored table is probed lookup-only, a strip at a
// time. Each group folds its stored value, then the delete side with COUNT
// and SUM negated (a − b is a + (−b) bit for bit), then retires (cleared) if
// its tracker is 0, then folds the insert side. A group the delete side may
// have robbed of a MIN or MAX — equal or incomparable to it, with no inserted
// value reaching it — or of a non-NULL value of a nullable SUM is scoped (see
// Scoped and Splice). A group the table holds twice, a delete delta naming a
// group the table lacks, a tracker NULL or below 0 and a subtraction from a
// NULL aggregate are errors: the table and its base disagree. A delete delta
// needs a tracker.
func MergeGroups(stored, del, ins []*storage.Chunk, spec MergeSpec) (*GroupMerge, error) {
	m := &GroupMerge{tracker: -1, lost: map[[2]int]sqltypes.Value{}}
	for c, agg := range spec.Aggs {
		ai := len(m.specs)
		switch {
		case agg == nil:
			m.keys = append(m.keys, c)
			continue
		case slices.Contains(spec.Scoped, c):
			m.scoped = append(m.scoped, ai)
		case agg.Op == "count" || agg.Op == "sum":
			m.sub = append(m.sub, ai)
		}
		if c == spec.Tracker {
			m.tracker = ai
		}
		m.all = append(m.all, ai)
		m.specs = append(m.specs, aggSpec{agg: &qgm.Agg{Op: agg.Op}, col: c, op: max(aggOps[agg.Op], opSum)}) // counts add up
	}
	rows := 0 // the delta's, a bound on its groups
	for _, cs := range [2][]*storage.Chunk{del, ins} {
		for _, c := range cs {
			rows += c.Len()
		}
	}
	m.t, m.kc = newGroupTable(len(m.keys), m.specs, rows, true), make([]keyCol, len(m.keys))
	m.each(del, true, nil)
	m.each(ins, true, nil)
	m.pos, m.flags = make([]int, m.t.n), make([]uint8, m.t.n)
	for g := range m.pos {
		m.pos[g] = -1
	}
	dup := false
	err := m.absorb(stored, func(g, pos int) bool {
		dup = dup || m.pos[g] >= 0
		if m.pos[g] >= 0 {
			return false
		}
		m.pos[g] = pos
		return true
	})
	if err == nil && dup {
		err = errors.New("exec: the table holds a group twice")
	}
	if err == nil {
		err = m.each(del, true, m.subtract)
	}
	if err == nil {
		err = m.each(ins, true, func(c *storage.Chunk, at int, ords []uint32) error {
			for i, g := range ords {
				if m.pos[g] >= 0 && m.flags[g]&mRetired == 0 {
					m.Merged++
				} else {
					m.Added++
				}
				m.flags[g] |= mInserted
				for _, ai := range m.scoped {
					if s, ok := m.lost[[2]int{int(g), ai}]; ok {
						if o, err := sqltypes.Compare(c.Col(m.specs[ai].col).Value(at+i), s); err == nil && reaches(m.specs[ai].op, o) {
							delete(m.lost, [2]int{int(g), ai}) // the new extreme is inserted
						}
					}
				}
			}
			return m.fold(c, at, nil, ords, m.all, false)
		})
	}
	for k := range m.lost {
		if m.flags[k[0]]&mRetired == 0 {
			m.flags[k[0]] |= mScoped
		}
	}
	return m, err
}

// subtract folds a strip of the delete delta and retires the groups whose
// tracker reaches 0, noting first the scoped cells it may empty.
func (m *GroupMerge) subtract(c *storage.Chunk, at int, ords []uint32) error {
	for i, g := range ords {
		rec := m.t.aggs.at(int(g))
		if m.pos[g] < 0 {
			return errors.New("exec: delete delta names a group the table lacks")
		}
		for _, ai := range m.sub {
			if !c.Col(m.specs[ai].col).IsNull(at+i) && m.t.kindOf(rec, ai) == sqltypes.KindNull {
				return errors.New("exec: subtracting from a NULL aggregate")
			}
		}
		for _, ai := range m.scoped {
			d, s := c.Col(m.specs[ai].col).Value(at+i), m.t.stateValue(rec, ai)
			if o, err := sqltypes.Compare(d, s); !d.IsNull() && (m.specs[ai].op == opSum || err != nil || reaches(m.specs[ai].op, o)) {
				m.lost[[2]int{int(g), ai}] = s
			}
		}
	}
	if err := m.fold(c, at, nil, ords, m.sub, true); err != nil {
		return err
	}
	for i, g := range ords {
		switch rec := m.t.aggs.at(int(g)); {
		case c.Col(m.specs[m.tracker].col).IsNull(at+i) || m.t.kindOf(rec, m.tracker) == sqltypes.KindNull || rec[m.tracker] < 0:
			return errors.New("exec: tracker count is NULL or below 0")
		case rec[m.tracker] == 0:
			clear(rec)
			m.flags[g] |= mRetired
			m.Retired++
		default:
			m.Merged++
		}
	}
	return nil
}

// reaches reports whether a value that compares o with a MIN or MAX is at
// least as far: at most it for a MIN, at least it for a MAX.
func reaches(op aggOp, o int) bool { return op == opMin && o <= 0 || op == opMax && o >= 0 }

// each finds (insert) or looks up the groups of every strip of chunks and
// calls f, when not nil, with the strip and its ordinals.
func (m *GroupMerge) each(chunks []*storage.Chunk, insert bool, f func(c *storage.Chunk, at int, ords []uint32) error) error {
	set := allInts(len(m.keys))
	for _, c := range chunks {
		for at := 0; at < c.Len(); at += stripRows {
			n := min(stripRows, c.Len()-at)
			for j, col := range m.keys {
				m.kc[j].load(c.Col(col), at, n)
			}
			m.t.findBatch(m.kc, set, m.hash[:n], m.ords[:n], insert)
			if f != nil {
				if err := f(c, at, m.ords[:n]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// absorb probes chunks lookup-only and folds each row whose group take
// accepts, given the row's position, into that group's empty state.
func (m *GroupMerge) absorb(chunks []*storage.Chunk, take func(g, pos int) bool) error {
	pos, sel, got := 0, []int32(nil), []uint32(nil)
	return m.each(chunks, false, func(c *storage.Chunk, at int, ords []uint32) error {
		sel, got = sel[:0], got[:0]
		for i, g := range ords {
			if g != noGroup && take(int(g), pos+i) {
				sel, got = append(sel, int32(at+i)), append(got, g)
			}
		}
		if pos += len(ords); len(got) == 0 {
			return nil
		}
		return m.fold(c, 0, sel, got, m.all, false)
	})
}

// fold folds aggregates ais of c's rows at onwards, or of rows sel, into
// groups ords; under neg (never with sel) each value negated.
func (m *GroupMerge) fold(c *storage.Chunk, at int, sel []int32, ords []uint32, ais []int, neg bool) error {
	var a vecAccum
	for _, ai := range ais {
		src, lo := c.Col(m.specs[ai].col), at
		if sel != nil {
			m.v.Gather(src, sel)
			src = &m.v
		}
		if neg {
			vals := m.v.RefillGeneric(len(ords))
			for i := range vals {
				var err error
				if vals[i], err = sqltypes.Neg(src.Value(lo + i)); err != nil {
					return err
				}
			}
			src, lo = &m.v, 0
		}
		a.bind(&m.specs[ai], src)
		if err := a.fold(m.t, ai, lo, ords, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// Scoped returns every scoped group's key, in the grouping columns' order,
// groups in first-appearance order.
func (m *GroupMerge) Scoped() [][]sqltypes.Value {
	var out [][]sqltypes.Value
	for g, f := range m.flags {
		if f&mScoped != 0 {
			key := make([]sqltypes.Value, len(m.keys))
			for j := range key {
				key[j] = m.t.value(g, j)
			}
			out = append(out, key)
		}
	}
	return out
}

// Splice makes each scoped group's values its row in chunks, a recompute in
// the table's layout; a scoped group that chunks lack is an error.
func (m *GroupMerge) Splice(chunks []*storage.Chunk) error {
	err := m.absorb(chunks, func(g, _ int) bool {
		ok := m.flags[g]&mScoped != 0
		if ok {
			m.flags[g] &^= mScoped
			clear(m.t.aggs.at(g))
		}
		return ok
	})
	if err == nil && slices.ContainsFunc(m.flags, func(f uint8) bool { return f&mScoped != 0 }) {
		err = errors.New("exec: scoped recompute lost a group")
	}
	return err
}

// Changes returns the merge as a Rewrite of the stored table: each stored
// group's position dropped when it retired and was not reborn, else set to
// its row; the new groups' rows appended. Groups leave through keyColumn and
// stateColumn, once, and are gathered into chunks in position order.
func (m *GroupMerge) Changes() storage.Changes {
	var ch storage.Changes
	var set, add []int32
	for g, p := range m.pos {
		switch {
		case p < 0:
			add = append(add, int32(g))
		case m.flags[g]&(mRetired|mInserted) == mRetired:
			ch.Drop = append(ch.Drop, p)
		default:
			set = append(set, int32(g))
		}
	}
	slices.Sort(ch.Drop)
	slices.SortFunc(set, func(a, b int32) int { return cmp.Compare(m.pos[a], m.pos[b]) })
	for _, g := range set {
		ch.Set = append(ch.Set, m.pos[g])
	}
	cols := make([]sqltypes.Vec, len(m.keys)+len(m.specs))
	for j, c := range m.keys {
		m.t.keyColumn(&cols[c], j, 0, m.t.n)
	}
	for ai := range m.specs {
		m.t.stateColumn(&cols[m.specs[ai].col], ai, &m.specs[ai], 0, m.t.n)
	}
	groups := storage.NewChunk(m.t.n, cols)
	ch.With, ch.Add = storage.Gather(groups, set), storage.Gather(groups, add)
	return ch
}
