package exec

import (
	"strings"
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// TestMergeGroupsRefusalsAndSplice: what the merge cannot fold is an error —
// a group the table holds twice, a SUM the delete side cannot negate or the
// insert side cannot add — and a scoped group takes its recompute's row, or
// is an error when the recompute lacks it.
func TestMergeGroupsRefusalsAndSplice(t *testing.T) {
	// k, count(*), sum, min; the tracker is column 1, the MIN scoped.
	spec := MergeSpec{Aggs: []*qgm.Agg{nil, {Op: "count", Star: true}, {Op: "sum"}, {Op: "min"}}, Tracker: 1, Scoped: []int{3}}
	r := func(k, c int64, s, lo sqltypes.Value) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewInt(k), sqltypes.NewInt(c), s, lo}
	}
	n := sqltypes.NewInt
	chunks := func(rows ...[]sqltypes.Value) []*storage.Chunk { return storage.Chunked(4, rows) }
	stored := chunks(r(1, 2, n(10), n(3)), r(2, 1, n(5), n(5)))
	for _, tc := range []struct {
		name             string
		stored, del, ins []*storage.Chunk
		want             string
	}{
		{"group held twice", chunks(r(1, 2, n(10), n(3)), r(1, 2, n(10), n(3))), chunks(r(1, 1, n(4), n(4))), nil, "twice"},
		{"sum the delete side cannot negate", stored, chunks(r(1, 1, sqltypes.NewString("x"), n(4))), nil, "negation"},
		{"sum the insert side cannot add", stored, nil, chunks(r(1, 1, sqltypes.NewString("x"), n(4))), "VARCHAR"},
	} {
		if _, err := MergeGroups(tc.stored, tc.del, tc.ins, spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	// Deleting group 1's lowest value scopes it.
	merge := func() *GroupMerge {
		m, err := MergeGroups(stored, chunks(r(1, 1, n(4), n(3))), nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		if keys := m.Scoped(); len(keys) != 1 || keys[0][0].Int() != 1 {
			t.Fatalf("scoped %v, want group 1", keys)
		}
		return m
	}
	if err := merge().Splice(chunks(r(2, 1, n(5), n(5)))); err == nil {
		t.Error("a recompute without the scoped group was spliced")
	}
	m := merge()
	if err := m.Splice(chunks(r(1, 1, n(6), n(6)))); err != nil {
		t.Fatal(err)
	}
	ch := m.Changes()
	if rows := storage.Rows(ch.With, len(ch.Set)); len(ch.Set) != 1 || ch.Set[0] != 0 || len(ch.Drop)+len(ch.Add) != 0 ||
		rows[0][1].Int() != 1 || rows[0][2].Int() != 6 || rows[0][3].Int() != 6 {
		t.Fatalf("changes %+v: want row 0 set to the recompute's [1 1 6 6]", ch)
	}
}
