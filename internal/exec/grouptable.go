package exec

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"repro/internal/sqltypes"
)

// groupTable is the one aggregation structure of both GROUP BY paths: a hash
// table from a group's encoded key to its ordinal, dense in first-appearance
// order, with everything per group held in strided slabs indexed by ordinal —
// no per-group heap object. The vectorized and the row path differ only in
// the key encoding they feed find (binary and decimal group keys); one
// grouping operation must stick to one encoding.
//
// Layout, for ordinal g: the key is keys[ends[g-1]:ends[g]] (an append-only
// arena), its hash hashes[g]; repr holds the grouping values of the group's
// first row (one per column of the grouping set, in set order) and aggs its
// aggregate states. index is open addressing over ordinal+1 (0 = empty), kept
// at most half full. Slices handed out by reprOf/aggsOf are valid until the
// next find.
type groupTable struct {
	keys   []byte
	ends   []uint32
	hashes []uint64
	index  []uint32
	repr   slab[sqltypes.Value]
	aggs   slab[aggState]
}

func newGroupTable(nRepr, nAggs int) *groupTable {
	return &groupTable{
		index: make([]uint32, 16),
		repr:  slab[sqltypes.Value]{stride: nRepr},
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
func (t *groupTable) len() int { return len(t.ends) }

// key returns group g's encoded key.
func (t *groupTable) key(g int) []byte {
	lo := uint32(0)
	if g > 0 {
		lo = t.ends[g-1]
	}
	return t.keys[lo:t.ends[g]]
}

func (t *groupTable) reprOf(g int) []sqltypes.Value { return t.repr.at(g) }
func (t *groupTable) aggsOf(g int) []aggState       { return t.aggs.at(g) }

// find returns the ordinal of the group with this key, adding it (zero repr
// and aggregate states, key copied) when it is new.
func (t *groupTable) find(key []byte) (g int, added bool) {
	return t.findHashed(key, hashKey(key))
}

func (t *groupTable) findHashed(key []byte, h uint64) (int, bool) {
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		g := int(t.index[i] - 1)
		if t.hashes[g] == h && bytes.Equal(t.key(g), key) {
			return g, false
		}
	}
	g := len(t.ends)
	t.keys = growZero(t.keys, len(key))
	copy(t.keys[len(t.keys)-len(key):], key)
	t.ends = growZero(t.ends, 1)
	t.ends[g] = uint32(len(t.keys))
	t.hashes = growZero(t.hashes, 1)
	t.hashes[g] = h
	t.repr.add(g)
	t.aggs.add(g)
	t.index[i] = uint32(g + 1)
	if 2*(g+1) > len(t.index) {
		t.rehash()
	}
	return g, true
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
	for g, h := range t.hashes {
		i := h & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(g + 1)
	}
}

// mergeFrom folds a later worker's partial into t, walking o's ordinals in
// order with their stored hashes: a group new to t is appended (so t keeps
// global first-appearance order, and the earlier partition's repr), a known
// one has its aggregate states combined. o is consumed.
func (t *groupTable) mergeFrom(o *groupTable, specs []aggSpec) error {
	for og := range o.ends {
		g, added := t.findHashed(o.key(og), o.hashes[og])
		if added {
			copy(t.reprOf(g), o.reprOf(og))
			copy(t.aggsOf(g), o.aggsOf(og))
			continue
		}
		into, from := t.aggsOf(g), o.aggsOf(og)
		for ai := range specs {
			if err := into[ai].merge(specs[ai].agg, &from[ai]); err != nil {
				return err
			}
		}
	}
	return nil
}

// hashKey hashes an encoded group key eight bytes at a time with a folded
// 64×64→128 multiply per word. Deterministic on purpose: group order never
// depends on it, and a fixed function keeps runs reproducible.
func hashKey(b []byte) uint64 {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93
	h := uint64(len(b)) * k0
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h^binary.LittleEndian.Uint64(b), k1)
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h^binary.LittleEndian.Uint64(tail[:]), k0)
	}
	return h ^ h>>32
}

func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
