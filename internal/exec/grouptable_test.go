package exec

import (
	"fmt"
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// TestGroupTableOrdinalsSurviveGrowth inserts enough keys to resize the index
// and to open many slab segments, and checks what the GROUP BY paths rely on:
// ordinals are dense in insertion order, and a key finds its ordinal, key
// bytes, repr and states again after every resize.
func TestGroupTableOrdinalsSurviveGrowth(t *testing.T) {
	const n = 10 * segGroups
	tab := newGroupTable(1, 2)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

	for i := 0; i < n; i++ {
		g, added := tab.find(key(i))
		if g != i || !added {
			t.Fatalf("insert %d: ordinal %d added=%v", i, g, added)
		}
		tab.reprOf(g)[0] = sqltypes.NewInt(int64(i))
		tab.aggsOf(g)[1].count = int64(i)
	}
	if tab.len() != n {
		t.Fatalf("len %d, want %d", tab.len(), n)
	}
	for i := n - 1; i >= 0; i-- {
		g, added := tab.find(key(i))
		if g != i || added {
			t.Fatalf("lookup %d: ordinal %d added=%v", i, g, added)
		}
		if got := tab.reprOf(g)[0].Int(); got != int64(i) {
			t.Fatalf("repr of %d = %d", i, got)
		}
		if got := tab.aggsOf(g)[1].count; got != int64(i) {
			t.Fatalf("aggs of %d = %d", i, got)
		}
		if string(tab.key(g)) != string(key(i)) {
			t.Fatalf("key of %d = %q", i, tab.key(g))
		}
	}
}

// TestGroupTableKeysAreBytes: the empty key (the global aggregate's one
// group) and keys that contain or end in NUL bytes are distinct groups.
func TestGroupTableKeysAreBytes(t *testing.T) {
	tab := newGroupTable(0, 1)
	keys := []string{"", "\x00", "a", "a\x00", "a\x00\x00", "\x00a", "a\x00b"}
	for round := 0; round < 2; round++ {
		for want, k := range keys {
			g, added := tab.find([]byte(k))
			if g != want || added != (round == 0) {
				t.Fatalf("round %d key %q: ordinal %d added=%v", round, k, g, added)
			}
			if len(tab.reprOf(g)) != 0 {
				t.Fatalf("zero-width repr has length %d", len(tab.reprOf(g)))
			}
		}
	}
	if tab.len() != len(keys) {
		t.Fatalf("len %d, want %d", tab.len(), len(keys))
	}
}

// TestGroupTableMergeKeepsFirstAppearance: merging a later partial appends
// its new groups after the earlier partial's, keeps the earlier partial's
// repr for shared groups, and combines their states.
func TestGroupTableMergeKeepsFirstAppearance(t *testing.T) {
	specs := []aggSpec{{agg: &qgm.Agg{Op: "count", Star: true}}}
	fill := func(tag int64, keys ...string) *groupTable {
		tab := newGroupTable(1, 1)
		for _, k := range keys {
			g, added := tab.find([]byte(k))
			if added {
				tab.reprOf(g)[0] = sqltypes.NewInt(tag)
			}
			tab.aggsOf(g)[0].count++
		}
		return tab
	}
	a := fill(1, "x", "y", "x")
	b := fill(2, "z", "y", "w", "y")
	if err := a.mergeFrom(b, specs); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key   string
		tag   int64
		count int64
	}{{"x", 1, 2}, {"y", 1, 3}, {"z", 2, 1}, {"w", 2, 1}}
	if a.len() != len(want) {
		t.Fatalf("merged len %d, want %d", a.len(), len(want))
	}
	for g, w := range want {
		if string(a.key(g)) != w.key || a.reprOf(g)[0].Int() != w.tag || a.aggsOf(g)[0].count != w.count {
			t.Fatalf("group %d = (%q, %d, %d), want %+v", g, a.key(g), a.reprOf(g)[0].Int(), a.aggsOf(g)[0].count, w)
		}
	}
}
