package exec

import (
	"math"
	"math/bits"

	"repro/internal/sqltypes"
)

// groupTable is the one hash table of the executor: both GROUP BY paths
// aggregate into it, and the star probe looks its dimension keys up in it. It
// maps a key — one value per key column — to an ordinal, dense in
// first-appearance order, with everything per group held in slabs indexed by
// ordinal; no per-group heap object.
//
// A group is stored as what findBatch computes for its first row, in a record
// of keys: the hash folded from its cells, per key column the cell's word
// (sqltypes.KeyCell), then the columns' codes, eight to a word. A code is the
// cell's class in its low nibble and the value's kind in its high one, so
// value rebuilds the first row's value bit for bit (an integral float is of
// the int class but of kind float). A string cell's word is the index of its
// string in strs, which holds the strings of key cells and of string state
// cells (a MIN or MAX running value, overwritten in place); each slot belongs
// to its one cell. The floats a cell cannot rebuild (−0.0, a NaN other than
// KeyCell's one) are of kind spilled and kept whole in spill. aggs holds the
// group's aggregate state cells (groupby.go), and pairs one pair table per
// DISTINCT aggregate. index is open addressing over
// ordinal+1 (0 = empty) with the hash's top bits above the ordinal, at most
// half full, so a probe passes over another key without reading its record.
// Slices from the slabs are valid until the next insertion.
//
// findBatch is the entry point: a strip of a chunk's key columns in, a
// []uint32 of ordinals out. find is its one-row form, used by the row path and
// to build a dimension. A lookup-only findBatch (insert false) writes nothing
// to the table, so a built dimension is probed by all workers at once.
type groupTable struct {
	nk, n int // key columns, groups
	index []uint32
	keys  slab[int64]
	strs  slab[string] // stride 1
	nstr  int
	spill map[int]sqltypes.Value // by ordinal*nk + key column
	na    int                    // aggregates
	aggs  slab[int64]            // per group: na state words, then their kind codes, eight to a word
	pairs []*groupTable          // by aggregate, up to the last DISTINCT one: its pair table, or nil
	row   *rowKey                // find's scratch
}

// noGroup is what a lookup-only findBatch reports for a key not in the table.
const noGroup = ^uint32(0)

// kindSpilled is the kind nibble of a cell whose value is in spill.
const kindSpilled = 0xf

// newGroupTable makes a table of nKeys key columns that aggregates specs (none
// for a dimension or a pair table). A DISTINCT aggregate gets a pair table:
// pairCols, or the argument alone when there are no key columns.
func newGroupTable(nKeys int, specs []aggSpec) *groupTable {
	t := &groupTable{
		nk:    nKeys,
		index: make([]uint32, 16),
		keys:  slab[int64]{stride: 1 + nKeys + (nKeys+7)/8},
		strs:  slab[string]{stride: 1},
		na:    len(specs),
		aggs:  slab[int64]{stride: len(specs) + (len(specs)+7)/8},
	}
	for ai, s := range specs {
		if s.agg.Distinct {
			t.pairs = append(t.pairs, make([]*groupTable, ai+1-len(t.pairs))...)
			t.pairs[ai] = newGroupTable(min(nKeys, 1)+1, nil)
		}
	}
	if nKeys == 0 {
		t.find(nil) // the empty grouping set has its one group whatever the input
	}
	return t
}

// slab is a strided array of per-group records that grows without copying
// what it holds: segments of segGroups groups, except that the first one
// starts at four groups and doubles up to that size, so a three-group table
// stays a few hundred bytes while a seven-thousand-group one never re-copies
// its megabyte of states.
type slab[T any] struct {
	stride int
	segs   [][]T
}

const segGroups = 64

func (s *slab[T]) at(g int) []T {
	o, n := uint(g)%segGroups*uint(s.stride), uint(s.stride)
	return s.segs[uint(g)/segGroups][o : o+n : o+n]
}

// add appends group g (the current group count), zeroed.
func (s *slab[T]) add(g int) {
	si, end := g/segGroups, (g%segGroups+1)*s.stride
	if si == len(s.segs) {
		first := segGroups
		if si == 0 {
			first = 4
		}
		s.segs = append(s.segs, make([]T, 0, first*s.stride))
	}
	seg := s.segs[si]
	if end > cap(seg) {
		seg = append(make([]T, 0, 2*cap(seg)), seg...)
	}
	s.segs[si] = seg[:end]
}

// code returns key column j's code in record rec.
func (t *groupTable) code(rec []int64, j int) uint8 {
	return uint8(rec[1+t.nk+int(uint(j)/8)] >> (uint(j) % 8 * 8))
}

// str returns the string of a string cell's word.
func (t *groupTable) str(w int64) string { return t.strs.at(int(w))[0] }

// value rebuilds group g's value of key column j.
func (t *groupTable) value(g, j int) sqltypes.Value {
	rec := t.keys.at(g)
	code, w := t.code(rec, j), rec[1+j]
	switch kind := sqltypes.Kind(code >> 4); kind {
	case kindSpilled:
		return t.spill[g*t.nk+j]
	case sqltypes.KindString:
		return sqltypes.NewString(t.str(w))
	default:
		return sqltypes.FromKeyCell(kind, sqltypes.Kind(code&0xf), w)
	}
}

// stripRows is how many rows findBatch takes at most. Callers walk a chunk in
// strips of that many rows — keys in, ordinals out, then whatever consumes the
// ordinals — so all the scratch of hashing is a few hundred rows long whatever
// the chunk holds.
const stripRows = 256

// keyCol is one key column of the current strip, normalised by load — once per
// strip however many grouping sets use it: the vector and the strip's offset
// in it (for a string cell's string and a new group's kind) and the cells. A
// worker owns one per key column; the buffers are sized to the strip's row
// count on first use and double after that.
type keyCol struct {
	vec     *sqltypes.Vec
	lo      int
	class   sqltypes.Kind   // every row's class when classes is nil
	classes []sqltypes.Kind // or nil
	words   []int64         // buf, or the vector's own payload
	buf     []int64
}

// load normalises elements lo to lo+n of v: kind dispatch and string hashing
// happen here, not per row or per set. An integer-class payload without NULLs
// is its own words, all of one class, and nothing is copied.
func (k *keyCol) load(v *sqltypes.Vec, lo, n int) {
	k.vec, k.lo, k.class, k.classes = v, lo, v.Kind(), k.classes[:0]
	if intClass(v) && !v.HasNulls() {
		k.words = v.Ints()[lo : lo+n]
		return
	}
	k.classes, k.buf = resize(k.classes, n), resize(k.buf, n)
	k.words = k.buf
	v.KeyCells(lo, k.classes, k.words)
}

// classOf returns row i's class.
func (k *keyCol) classOf(i int) sqltypes.Kind {
	if len(k.classes) == 0 {
		return k.class
	}
	return k.classes[i]
}

// str returns row i's string; its class must be KindString.
func (k *keyCol) str(i int) string {
	if k.vec.Generic() {
		return k.vec.Any()[k.lo+i].Str()
	}
	return k.vec.Strs()[k.lo+i]
}

// resize returns scratch s with length n, contents stale.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// findBatch writes to ords the ordinal of each row's group; ords' length is
// the strip's row count, and hash is scratch of that length. A row's key is
// the columns set of keys, in that order. With insert, a key not yet in the
// table becomes a new group (cells from the row, zero state cells) — rows
// are taken in order, so ordinals stay dense in first-appearance order;
// without, its ordinal is noGroup. Hashes are folded a column at a time, rows
// are then probed one by one: index tag first, then the record's cells.
func (t *groupTable) findBatch(keys []keyCol, set []int, hash []uint64, ords []uint32, insert bool) {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93
	if len(set) == 0 && len(ords) > 1 { // the empty grouping set: one key, one probe
		t.findBatch(keys, set, hash[:1], ords[:1], insert)
		for i := range ords {
			ords[i] = ords[0]
		}
		return
	}
	for i := range hash {
		hash[i] = k0
	}
	for _, c := range set {
		k := &keys[c]
		for i, w := range k.words[:len(hash)] {
			hash[i] = mix64(hash[i]^uint64(w)^uint64(k.classOf(i))<<56, k1)
		}
	}
rows:
	for i, h := range hash {
		mask := uint32(len(t.index) - 1)
		slot, tag := uint32(h)&mask, uint32(h>>32)&^mask
	probe:
		for ; t.index[slot] != 0; slot = (slot + 1) & mask {
			e := t.index[slot]
			if e&^mask != tag {
				continue
			}
			rec := t.keys.at(int(e&mask) - 1)
			for j, c := range set {
				k, w := &keys[c], rec[1+j]
				class := k.classOf(i)
				if sqltypes.Kind(t.code(rec, j)&0xf) != class ||
					class == sqltypes.KindString && t.str(w) != k.str(i) || class != sqltypes.KindString && w != k.words[i] {
					continue probe
				}
			}
			ords[i] = e&mask - 1
			continue rows
		}
		if ords[i] = noGroup; insert {
			ords[i] = uint32(t.addRow(keys, set, i, slot, h))
		}
	}
}

// addRow makes row i of the strip a new group, at the empty index slot where
// its probe ended.
func (t *groupTable) addRow(keys []keyCol, set []int, i int, slot uint32, h uint64) int {
	g, rec := t.add(slot, h)
	for j, c := range set {
		k := &keys[c]
		class, w, v := k.classOf(i), k.words[i], k.vec.Value(k.lo+i)
		kind := v.Kind()
		switch {
		case class == sqltypes.KindString:
			w = t.addStr(v.Str())
		case kind == sqltypes.KindFloat &&
			math.Float64bits(sqltypes.FromKeyCell(kind, class, w).Float()) != math.Float64bits(v.Float()):
			t.spillCell(g, j, v)
			kind = kindSpilled
		}
		rec[1+j] = w
		rec[1+t.nk+j/8] |= int64(uint8(class)|uint8(kind)<<4) << (j % 8 * 8)
	}
	return g
}

// add makes group t.n with hash h at an empty index slot and returns it with
// its record, for the caller to fill with cells.
func (t *groupTable) add(slot uint32, h uint64) (int, []int64) {
	g := t.n
	t.n++
	t.keys.add(g)
	t.aggs.add(g)
	rec := t.keys.at(g)
	rec[0] = int64(h)
	if t.index[slot] = uint32(h>>32)&^uint32(len(t.index)-1) | uint32(g+1); 2*t.n > len(t.index) {
		t.rehash()
	}
	return g, rec
}

// addStr stores a string cell's string and returns its word.
func (t *groupTable) addStr(s string) int64 {
	t.strs.add(t.nstr)
	t.strs.at(t.nstr)[0] = s
	t.nstr++
	return int64(t.nstr - 1)
}

func (t *groupTable) spillCell(g, j int, v sqltypes.Value) {
	if t.spill == nil {
		t.spill = map[int]sqltypes.Value{}
	}
	t.spill[g*t.nk+j] = v
}

// rowKey is a one-row strip over one-element generic vectors.
type rowKey struct {
	keys []keyCol
	vecs []sqltypes.Vec
	set  []int
	hash [1]uint64
	ord  [1]uint32
}

// find is findBatch for one row: the ordinal of the group with these key
// values, added when it is new.
func (t *groupTable) find(key []sqltypes.Value) int {
	if t.row == nil {
		t.row = &rowKey{keys: make([]keyCol, len(key)), vecs: make([]sqltypes.Vec, len(key)), set: allInts(len(key))}
	}
	r := t.row
	for c, v := range key {
		r.vecs[c].RefillGeneric(1)[0] = v
		r.keys[c].load(&r.vecs[c], 0, 1)
	}
	t.findBatch(r.keys, r.set, r.hash[:], r.ord[:], true)
	return int(r.ord[0])
}

// rehash doubles the index and re-seats every ordinal from its stored hash.
func (t *groupTable) rehash() {
	t.index = make([]uint32, 2*len(t.index))
	mask := uint32(len(t.index) - 1)
	for g := 0; g < t.n; g++ {
		h := uint64(t.keys.at(g)[0])
		i := uint32(h) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(h>>32)&^mask | uint32(g+1)
	}
}

// mergeFrom folds a later worker's partial into t, walking o's ordinals in
// order and probing t with each group's stored hash and cells: a group new to
// t is appended (so t keeps global first-appearance order, and the earlier
// partition's representative). COUNTs add. Every other aggregate is folded
// as the pipeline folds rows, a strip at a time, each row's group remapped to
// t's: SUM/MIN/MAX take o's running values as inputs, and DISTINCT takes o's
// pairs, in o's order, rebuilt from their cells. o is consumed: its index, no
// longer probed, keeps each of its groups' ordinal in t.
func (t *groupTable) mergeFrom(o *groupTable, specs []aggSpec) error {
	remap := o.index[:o.n] // at most half full, so long enough
	for og := range remap {
		orec := o.keys.at(og)
		g, slot := t.probe(o, orec)
		if g < 0 {
			var rec []int64
			g, rec = t.add(slot, uint64(orec[0]))
			copy(rec, orec)
			for j := 0; j < t.nk; j++ {
				switch code := o.code(orec, j); {
				case code&0xf == uint8(sqltypes.KindString):
					rec[1+j] = t.addStr(o.str(orec[1+j]))
				case code>>4 == kindSpilled:
					t.spillCell(g, j, o.spill[og*t.nk+j])
				}
			}
		}
		remap[og] = uint32(g)
		into, from := t.aggs.at(g), o.aggs.at(og)
		for ai := range specs {
			if specs[ai].op == opCount && !specs[ai].agg.Distinct {
				into[ai] += from[ai]
			}
		}
	}
	hash, ords := [stripRows]uint64{}, [stripRows]uint32{}
	for ai := range specs {
		s, src := &specs[ai], o // src's rows are the strip's: o's groups, or o's pairs
		if s.agg.Distinct {
			src = o.pairs[ai]
		} else if s.op == opCount {
			continue
		}
		a, args := vecAccum{}, sqltypes.Vec{}
		for lo := 0; lo < src.n; lo += stripRows {
			n := min(stripRows, src.n-lo)
			args.Reset()
			for i := range n {
				og, v := lo+i, sqltypes.Null
				if src == o {
					v = o.stateValue(o.aggs.at(og), ai)
				} else if og, v = 0, src.value(og, src.nk-1); src.nk == 2 {
					og = int(src.keys.at(lo + i)[1]) // the pair's group
				}
				ords[i] = remap[og]
				args.AppendValue(v)
			}
			a.bind(s, &args)
			if err := a.fold(t, ai, 0, ords[:n], false, hash[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// probe returns the ordinal in t of o's group with record orec, or -1 and the
// empty slot where the probe ended.
func (t *groupTable) probe(o *groupTable, orec []int64) (int, uint32) {
	h, mask := uint64(orec[0]), uint32(len(t.index)-1)
	slot := uint32(h) & mask
	for ; t.index[slot] != 0; slot = (slot + 1) & mask {
		e := t.index[slot]
		if g := int(e&mask) - 1; e&^mask == uint32(h>>32)&^mask && t.sameKey(t.keys.at(g), o, orec) {
			return g, slot
		}
	}
	return -1, slot
}

// sameKey reports whether record rec of t and record orec of o hold one key.
func (t *groupTable) sameKey(rec []int64, o *groupTable, orec []int64) bool {
	for j := 0; j < t.nk; j++ {
		class, w, ow := t.code(rec, j)&0xf, rec[1+j], orec[1+j]
		if o.code(orec, j)&0xf != class ||
			class == uint8(sqltypes.KindString) && t.str(w) != o.str(ow) || class != uint8(sqltypes.KindString) && w != ow {
			return false
		}
	}
	return true
}

// mix64 is a folded 64×64→128 multiply. The hash built from it is
// deterministic but for the string words: group order never depends on it.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
