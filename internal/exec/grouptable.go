package exec

import (
	"math/bits"

	"repro/internal/sqltypes"
)

// groupTable is the one hash table of the executor: both GROUP BY paths
// aggregate into it, and the star probe looks its dimension keys up in it. It
// maps a key — one value per key column — to an ordinal, dense in
// first-appearance order, with everything per group held in strided arrays
// indexed by ordinal; no per-group heap object.
//
// A key is stored as typed cells, sqltypes.KeyCell's normalisation of each
// value: for ordinal g and key column j a class classes[g*nk+j] and a word
// words[g*(nk+1)+1+j], behind the hash folded from the cells in
// words[g*(nk+1)]. A string cell's word is only the string's hash; the string
// itself is the group's repr value, which holds the key values of the group's
// first row (in key column order). aggs holds the group's aggregate states.
// index is open addressing over ordinal+1 (0 = empty), kept at most half full.
// Slices handed out by repr.at and aggs.at are valid until the next insertion.
//
// findBatch is the entry point: a strip of a chunk's key columns in, a
// []uint32 of ordinals out. find is its one-row form, used by the row path, by
// mergeFrom and to build a dimension. A lookup-only findBatch (insert false)
// writes nothing to the table, so a built dimension is probed by all workers
// at once.
type groupTable struct {
	classes []sqltypes.Kind
	words   []int64
	index   []uint32
	repr    slab[sqltypes.Value]
	aggs    slab[aggState]
	row     *rowKey // find's scratch
}

// noGroup is what a lookup-only findBatch reports for a key not in the table.
const noGroup = ^uint32(0)

func newGroupTable(nKeys, nAggs int) *groupTable {
	return &groupTable{
		index: make([]uint32, 16),
		repr:  slab[sqltypes.Value]{stride: nKeys},
		aggs:  slab[aggState]{stride: nAggs},
	}
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
	o := g % segGroups * s.stride
	return s.segs[g/segGroups][o : o+s.stride : o+s.stride]
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

// len returns the number of groups.
func (t *groupTable) len() int { return len(t.words) / (t.repr.stride + 1) }

func (t *groupTable) reprOf(g int) []sqltypes.Value { return t.repr.at(g) }
func (t *groupTable) aggsOf(g int) []aggState       { return t.aggs.at(g) }

// stripRows is how many rows findBatch takes at most. Callers walk a chunk in
// strips of that many rows — keys in, ordinals out, then whatever consumes the
// ordinals — so all the scratch of hashing is a few hundred rows long whatever
// the chunk holds.
const stripRows = 256

// keyCol is one key column of the current strip, normalised by load — once per
// strip however many grouping sets use it: the vector and the strip's offset
// in it (for a string cell's string and a new group's repr) and the cells. A
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
		k.words = v.Ints[lo : lo+n]
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
// table becomes a new group (repr from the row, zero aggregate states) — rows
// are taken in order, so ordinals stay dense in first-appearance order;
// without, its ordinal is noGroup. Hashes are folded a column at a time, rows
// are then probed one by one: stored hash first, then the typed cells.
func (t *groupTable) findBatch(keys []keyCol, set []int, hash []uint64, ords []uint32, insert bool) {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93
	for i := range hash {
		hash[i] = k0
	}
	for _, c := range set {
		k := &keys[c]
		for i, w := range k.words[:len(hash)] {
			hash[i] = mix64(hash[i]^uint64(w)^uint64(k.classOf(i))<<56, k1)
		}
	}
	nk := len(set)
rows:
	for i, h := range hash {
		mask := uint64(len(t.index) - 1)
		slot := h & mask
	probe:
		for ; t.index[slot] != 0; slot = (slot + 1) & mask {
			g := int(t.index[slot] - 1)
			words := t.words[g*(nk+1):][:nk+1]
			if uint64(words[0]) != h {
				continue
			}
			for j, c := range set {
				k := &keys[c]
				if class := k.classOf(i); words[1+j] != k.words[i] || t.classes[g*nk+j] != class ||
					class == sqltypes.KindString && t.repr.at(g)[j].Str() != k.vec.Value(k.lo+i).Str() {
					continue probe
				}
			}
			ords[i] = uint32(g)
			continue rows
		}
		if ords[i] = noGroup; !insert {
			continue
		}
		g := t.len()
		t.classes, t.words = growZero(t.classes, nk), growZero(t.words, nk+1)
		t.repr.add(g)
		t.aggs.add(g)
		words, repr := t.words[g*(nk+1):], t.repr.at(g)
		words[0] = int64(h)
		for j, c := range set {
			k := &keys[c]
			t.classes[g*nk+j], words[1+j], repr[j] = k.classOf(i), k.words[i], k.vec.Value(k.lo+i)
		}
		ords[i] = uint32(g)
		if t.index[slot] = uint32(g + 1); 2*(g+1) > len(t.index) {
			t.rehash()
		}
	}
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

// growZero returns s with n more zero elements (nothing here ever shrinks,
// so spare capacity is still zero from make). Capacity doubles: append would
// grow a large slice by a quarter at a time and copy five times its final
// size on the way.
func growZero[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		grown := make([]T, len(s), max(2*cap(s), len(s)+n, 4*n))
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+n]
}

// rehash doubles the index and re-seats every ordinal from its stored hash.
func (t *groupTable) rehash() {
	t.index = make([]uint32, 2*len(t.index))
	mask := uint64(len(t.index) - 1)
	for g, n := 0, t.len(); g < n; g++ {
		i := uint64(t.words[g*(t.repr.stride+1)]) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(g + 1)
	}
}

// mergeFrom folds a later worker's partial into t, walking o's ordinals in
// order: a group new to t is appended (so t keeps global first-appearance
// order, and the earlier partition's repr), a known one has its aggregate
// states combined. o is consumed.
func (t *groupTable) mergeFrom(o *groupTable, specs []aggSpec) error {
	for og := 0; og < o.len(); og++ {
		known := t.len()
		g := t.find(o.repr.at(og))
		into, from := t.aggs.at(g), o.aggs.at(og)
		if g >= known {
			copy(into, from)
			continue
		}
		for ai := range specs {
			if err := into[ai].merge(specs[ai].agg, &from[ai]); err != nil {
				return err
			}
		}
	}
	return nil
}

// mix64 is a folded 64×64→128 multiply. The hash built from it is
// deterministic but for the string words: group order never depends on it.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
