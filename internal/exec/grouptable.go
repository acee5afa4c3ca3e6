package exec

import (
	"cmp"
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
// DISTINCT aggregate. Slices from the slabs are valid until the next
// insertion.
//
// index holds ordinal+1 (0 = empty). A table starts direct: while each key
// column's cells are of one integer class (int, date or bool) and the product
// of the columns' spans of words fits limit, index has a cell per key in the
// spans, so a probe is a subtract and a multiply per column and one load. A
// key outside the spans widens them; one they cannot take converts the table
// for good to hashed: open addressing with the hash's top bits above the
// ordinal, at most half full, so a probe passes over another key without
// reading its record. Either index is rebuilt from the records alone.
//
// findBatch is the entry point: a strip of a chunk's key columns in, a
// []uint32 of ordinals out. find is its one-row form, used by the row path and
// to build a dimension. A lookup-only findBatch (insert false) writes nothing
// to the table, so a built dimension is probed by all workers at once.
type groupTable struct {
	nk, n  int // key columns, groups
	index  []uint32
	hashed bool
	spans  []keySpan // by key column, while direct
	limit  uint64    // the most cells a direct index may have
	keys   slab[int64]
	strs   slab[string] // stride 1
	nstr   int
	spill  map[int]sqltypes.Value // by ordinal*nk + key column
	na     int                    // aggregates
	aggs   slab[int64]            // per group: na state words, then their kind codes, eight to a word
	pairs  []*groupTable          // by aggregate, up to the last DISTINCT one: its pair table, or nil
	row    *rowKey                // find's scratch
}

// keySpan is a key column of a direct index: its cells' class, and its words
// lo to lo+n-1 (none yet while n is 0), each stride cells after the last.
type keySpan struct {
	class     sqltypes.Kind
	lo        int64
	n, stride uint64
}

// maxCells bounds a direct index (32 KiB): 200 locations × 3 years × 12
// months fit. cellMiss marks a row the direct index has no cell for.
const maxCells, cellMiss = 1 << 13, 1 << 31

// noGroup is what a lookup-only findBatch reports for a key not in the table.
const noGroup = ^uint32(0)

// kindSpilled is the kind nibble of a cell whose value is in spill.
const kindSpilled = 0xf

// newGroupTable makes a table of nKeys key columns that aggregates specs (none
// for a dimension or a pair table). rows, when not 0, bounds its groups: its
// direct index stays within a hashed one of that many, and with sized (the
// bound is near: a dimension's rows, a key set's tuples, a delta's rows) it
// sizes the first slab segment, up to a whole one. A DISTINCT aggregate gets
// a pair table: pairCols, or the argument alone when there are no key columns.
func newGroupTable(nKeys int, specs []aggSpec, rows int, sized bool) *groupTable {
	first := 0
	if sized {
		first = min(rows, segGroups)
	}
	t := &groupTable{
		nk:    nKeys,
		spans: make([]keySpan, nKeys),
		limit: uint64(min(maxCells, hashedLen(cmp.Or(rows, maxCells)))),
		keys:  slab[int64]{stride: 1 + nKeys + (nKeys+7)/8, first: first},
		strs:  slab[string]{stride: 1, first: first},
		na:    len(specs),
		aggs:  slab[int64]{stride: len(specs) + (len(specs)+7)/8, first: first},
	}
	for ai, s := range specs {
		if s.agg.Distinct {
			t.pairs = append(t.pairs, make([]*groupTable, ai+1-len(t.pairs))...)
			p := newGroupTable(min(nKeys, 1)+1, nil, rows, false)
			if nKeys > 0 && rows > maxCells {
				// Its group ordinals could outgrow a direct index on their
				// own: hashed from the start, not after widening to the limit.
				p.hashed = true
				p.rehash(hashedLen(p.n))
			}
			t.pairs[ai] = p
		}
	}
	if nKeys == 0 {
		t.find(nil, true) // the empty grouping set has its one group whatever the input
	}
	return t
}

// slab is a strided array of per-group records that grows without copying
// what it holds: segments of segGroups groups, except that the first one
// starts at first groups (four when no bound sized it) and doubles up to
// that size, so a three-group table stays a few hundred bytes while a
// seven-thousand-group one never re-copies its megabyte of states.
type slab[T any] struct {
	stride, first int
	segs          [][]T
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
			first = cmp.Or(s.first, 4)
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

// keyColumn fills v with key column j of groups lo to lo+n, each cell as
// value rebuilds it.
func (t *groupTable) keyColumn(v *sqltypes.Vec, j, lo, n int) {
	c := cellCol{s: &t.keys, word: 1 + j, code: 1 + t.nk + j/8, sh: uint(j) % 8 * 8, key: true}
	t.column(v, c, lo, n, func(g int) sqltypes.Value { return t.value(g, j) })
}

// stateColumn fills v with aggregate s's results, from cell ai of groups lo
// to lo+n: a COUNT's counts, or each running value as stateValue rebuilds it.
func (t *groupTable) stateColumn(v *sqltypes.Vec, ai int, s *aggSpec, lo, n int) {
	c := cellCol{s: &t.aggs, word: ai, code: t.na + ai/8, sh: uint(ai) % 8 * 8, count: s.op == opCount}
	t.column(v, c, lo, n, func(g int) sqltypes.Value { return t.stateValue(t.aggs.at(g), ai) })
}

// cellCol is one column of cells in a slab of records: per record, the cell's
// word at word and its code in bits sh to sh+8 of word code. A key cell's code
// is class | kind<<4, a state cell's its kind, which is its class too; a
// COUNT's cell is its count, an int.
type cellCol struct {
	s          *slab[int64]
	word, code int
	sh         uint
	key, count bool
}

func (c cellCol) cell(g int) (kind, class sqltypes.Kind, w int64) {
	rec := c.s.at(g)
	switch code := sqltypes.Kind(rec[c.code] >> c.sh); {
	case c.count:
		return sqltypes.KindInt, sqltypes.KindInt, rec[c.word]
	case c.key:
		return code >> 4, code & 0xf, rec[c.word]
	default:
		return code, code, rec[c.word]
	}
}

// column fills v with cells lo to lo+n of c: in one typed payload when their
// kinds are one but for NULLs and none is spilled or poisoned (0xf), else
// each as cell rebuilds it.
func (t *groupTable) column(v *sqltypes.Vec, c cellCol, lo, n int, cell func(g int) sqltypes.Value) {
	kind := sqltypes.KindNull
	for g := lo; g < lo+n; g++ {
		switch k, _, _ := c.cell(g); {
		case k == 0xf || k != sqltypes.KindNull && kind != sqltypes.KindNull && k != kind:
			v.Reset()
			for g := lo; g < lo+n; g++ {
				v.AppendValue(cell(g))
			}
			return
		case k != sqltypes.KindNull:
			kind = k
		}
	}
	var ints []int64
	var floats []float64
	var strs []string
	switch kind {
	case sqltypes.KindNull:
		v.Splat(sqltypes.Null, n)
		return
	case sqltypes.KindFloat:
		floats = v.RefillFloats(n)
	case sqltypes.KindString:
		strs = v.RefillStrings(n)
	default:
		ints = v.RefillInts(kind, n)
	}
	for i := range n {
		k, class, w := c.cell(lo + i)
		if k == sqltypes.KindNull {
			v.SetNull(i) // its word is 0, the payload's zero
		}
		switch {
		case ints != nil:
			ints[i] = w
		case strs != nil && k == sqltypes.KindNull:
			strs[i] = ""
		case strs != nil:
			strs[i] = t.str(w)
		case class == sqltypes.KindInt:
			floats[i] = float64(w)
		default:
			floats[i] = math.Float64frombits(uint64(w))
		}
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
// without, its ordinal is noGroup. A direct table takes the rows it can
// (findDirect); for the rest, hashes are folded a column at a time, rows are
// then probed one by one: index tag first, then the record's cells.
func (t *groupTable) findBatch(keys []keyCol, set []int, hash []uint64, ords []uint32, insert bool) {
	if len(set) == 0 && len(ords) > 1 { // the empty grouping set: one key, one probe
		t.findBatch(keys, set, hash[:1], ords[:1], insert)
		for i := range ords {
			ords[i] = ords[0]
		}
		return
	}
	from := 0
	if !t.hashed {
		from = t.findDirect(keys, set, ords, insert)
	}
	hash = hash[from:len(ords)]
	for i := range hash {
		hash[i] = k0
	}
	for _, c := range set {
		k := &keys[c]
		for i, w := range k.words[from : from+len(hash)] {
			hash[i] = mixCell(hash[i], w, k.classOf(from+i))
		}
	}
rows:
	for i, h := range hash {
		mask := uint32(len(t.index) - 1)
		slot, tag, r := uint32(h)&mask, uint32(h>>32)&^mask, from+i
	probe:
		for ; t.index[slot] != 0; slot = (slot + 1) & mask {
			e := t.index[slot]
			if e&^mask != tag {
				continue
			}
			rec := t.keys.at(int(e&mask) - 1)
			for j, c := range set {
				k, w := &keys[c], rec[1+j]
				class := k.classOf(r)
				if sqltypes.Kind(t.code(rec, j)&0xf) != class ||
					class == sqltypes.KindString && t.str(w) != k.str(r) || class != sqltypes.KindString && w != k.words[r] {
					continue probe
				}
			}
			ords[r] = e&mask - 1
			continue rows
		}
		if ords[r] = noGroup; insert {
			g := t.addRow(keys, set, r, h)
			if ords[r], t.index[slot] = uint32(g), tag|uint32(g+1); 2*t.n > len(t.index) {
				t.rehash(2 * len(t.index))
			}
		}
	}
}

// findDirect is findBatch on a direct index: each row's cell, summed a column
// at a time, then its entry. A new key without a cell widens the spans, and
// the rows after it are addressed again, or converts the table; findDirect
// returns the row the hashed probe goes on from, len(ords) when none.
func (t *groupTable) findDirect(keys []keyCol, set []int, ords []uint32, insert bool) int {
strip:
	for from := 0; ; {
		cells := ords[from:]
		clear(cells)
		for j, c := range set {
			k, s := &keys[c], t.spans[j]
			for i, w := range k.words[from:len(ords)] {
				if off := uint64(w - s.lo); off < s.n && k.classOf(from+i) == s.class {
					cells[i] += uint32(off * s.stride)
				} else {
					cells[i] |= cellMiss
				}
			}
		}
		for i, p := range cells {
			switch {
			case p < uint32(len(t.index)) && t.index[p] != 0:
				cells[i] = t.index[p] - 1
			case !insert:
				cells[i] = noGroup
			default:
				g := t.addRow(keys, set, from+i, hashRow(keys, set, from+i))
				if cells[i] = uint32(g); p < uint32(len(t.index)) {
					t.index[p] = uint32(g + 1)
					continue
				}
				if from += i + 1; !t.widen() { // no cell: widen the spans, or convert
					t.hashed = true
					t.rehash(hashedLen(t.n))
					return from
				}
				continue strip
			}
		}
		return len(ords)
	}
}

// hashRow folds row i's hash, as findBatch does a strip's.
func hashRow(keys []keyCol, set []int, i int) uint64 {
	h := uint64(k0)
	for _, c := range set {
		h = mixCell(h, keys[c].words[i], keys[c].classOf(i))
	}
	return h
}

// addRow makes row i of the strip a new group with hash h, not yet in the
// index. Kinds and strings are read from the strip's vectors: only an element
// of a generic vector, or a float that may spill, becomes a Value.
func (t *groupTable) addRow(keys []keyCol, set []int, i int, h uint64) int {
	g := t.n
	t.n++
	t.keys.add(g)
	t.aggs.add(g)
	rec := t.keys.at(g)
	rec[0] = int64(h)
	for j, c := range set {
		k := &keys[c]
		class, w, kind, v := k.classOf(i), k.words[i], k.vec.Kind(), sqltypes.Null
		switch {
		case k.vec.Generic():
			v = k.vec.Any()[k.lo+i]
			kind = v.Kind()
		case class == sqltypes.KindNull:
			kind = sqltypes.KindNull
		case kind == sqltypes.KindFloat:
			v = sqltypes.NewFloat(k.vec.Floats()[k.lo+i])
		}
		switch {
		case class == sqltypes.KindString:
			w = t.addStr(k.str(i))
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

// widen makes the direct index cover the newest group's key, or reports false:
// a cell not of its column's class (an integer one, the first group's), or
// spans of the groups' words whose product is past limit. A span the key fell
// outside of grows on both sides to twice its cells where the others leave
// room. Every group is re-seated.
func (t *groupTable) widen() bool {
	rec, cells := t.keys.at(t.n-1), uint64(1)
	for j := range t.spans {
		s, w, class := &t.spans[j], rec[1+j], sqltypes.Kind(t.code(rec, j)&0xf)
		if s.n > 0 && class != s.class || class != sqltypes.KindInt && class != sqltypes.KindDate && class != sqltypes.KindBool {
			return false
		}
		lo, hi := w, w
		for g := 0; g < t.n-1; g++ {
			lo, hi = min(lo, t.keys.at(g)[1+j]), max(hi, t.keys.at(g)[1+j])
		}
		if s.stride = 0; uint64(w-s.lo) >= s.n {
			s.stride = s.n // a widened span's old cells, until the strides are set
		}
		if s.class, s.lo, s.n = class, lo, uint64(hi)-uint64(lo)+1; s.n == 0 || s.n > t.limit || cells*s.n > t.limit {
			return false // s.n == 0: all of int64
		}
		cells *= s.n
	}
	stride := uint64(1)
	for j := range t.spans {
		s := &t.spans[j]
		if n := min(max(s.n, 2*s.stride), t.limit/(cells/s.n)); s.stride > 0 {
			// Words are offsets from lo mod 2⁶⁴: a span past an end of
			// int64 wraps around and still gives each word its own cell.
			cells, s.lo, s.n = cells/s.n*n, s.lo-int64(n-s.n)/2, n
		}
		s.stride, stride = stride, stride*s.n
	}
	if c := cells; uint64(cap(t.index)) < c {
		if 2*c > t.limit {
			c = t.limit // past half the limit: room for every widening to come
		}
		t.index = make([]uint32, 0, c)
	}
	t.index = t.index[:cells]
	clear(t.index)
	for g := 0; g < t.n; g++ {
		rec, p := t.keys.at(g), uint64(0)
		for j, s := range t.spans {
			p += uint64(rec[1+j]-s.lo) * s.stride
		}
		t.index[p] = uint32(g + 1)
	}
	return true
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
// values.
func (t *groupTable) find(key []sqltypes.Value, insert bool) uint32 {
	if t.row == nil {
		t.row = &rowKey{keys: make([]keyCol, len(key)), vecs: make([]sqltypes.Vec, len(key)), set: allInts(len(key))}
	}
	r := t.row
	for c, v := range key {
		r.vecs[c].RefillGeneric(1)[0] = v
		r.keys[c].load(&r.vecs[c], 0, 1)
	}
	t.findBatch(r.keys, r.set, r.hash[:], r.ord[:], insert)
	return r.ord[0]
}

// hashedLen is the length of a hashed index of n groups.
func hashedLen(n int) int { return max(16, 2<<bits.Len(uint(n-1))) }

// rehash makes a hashed index of size entries and seats every ordinal in it
// from its stored hash.
func (t *groupTable) rehash(size int) {
	t.index = make([]uint32, size)
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

// mergeFrom folds a later worker's partial into t: o's keys, a strip of its
// groups at a time as keyColumn rebuilds them, go through findBatch, so a
// group new to t is appended (t keeps global first-appearance order, and the
// earlier partition's representative). COUNTs add. Every other aggregate is
// folded as the pipeline folds rows, a strip at a time, each row's group
// remapped to t's: SUM/MIN/MAX take o's running values as inputs
// (stateColumn), and DISTINCT takes o's pairs' arguments, in o's order
// (keyColumn). o is consumed: its index keeps each of its groups' ordinal in t.
func (t *groupTable) mergeFrom(o *groupTable, specs []aggSpec) error {
	remap := o.index[:o.n] // a cell or two entries per group, so long enough
	keys, vecs, set := make([]keyCol, t.nk), make([]sqltypes.Vec, t.nk), allInts(t.nk)
	hash, ords := [stripRows]uint64{}, [stripRows]uint32{}
	for lo := 0; lo < o.n; lo += stripRows {
		n := min(stripRows, o.n-lo)
		for j := range keys {
			o.keyColumn(&vecs[j], j, lo, n)
			keys[j].load(&vecs[j], 0, n)
		}
		t.findBatch(keys, set, hash[:n], remap[lo:lo+n], true)
	}
	for og, g := range remap {
		into, from := t.aggs.at(int(g)), o.aggs.at(og)
		for ai := range specs {
			if specs[ai].op == opCount && !specs[ai].agg.Distinct {
				into[ai] += from[ai]
			}
		}
	}
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
			for i := range n {
				og := lo + i
				if src != o && src.nk == 1 {
					og = 0
				} else if src != o {
					og = int(src.keys.at(og)[1]) // the pair's group
				}
				ords[i] = remap[og]
			}
			if src == o {
				o.stateColumn(&args, ai, s, lo, n)
			} else {
				src.keyColumn(&args, src.nk-1, lo, n)
			}
			a.bind(s, &args)
			if err := a.fold(t, ai, 0, ords[:n], false, hash[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// mixCell folds a cell of class class and word w into hash h, which starts
// at k0.
const k0, k1 = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93

func mixCell(h uint64, w int64, class sqltypes.Kind) uint64 {
	return mix64(h^uint64(w)^uint64(class)<<56, k1)
}

// mix64 is a folded 64×64→128 multiply. The hash built from it is
// deterministic but for the string words: group order never depends on it.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
