package qgm

import "testing"

// TestCloneIndependence: a clone shares no box or quantifier with its source.
// That a clone is also well-formed is checked where the checker lives
// (internal/qgmcheck, TestBuiltAndClonedGraphsStructural).
func TestCloneIndependence(t *testing.T) {
	cat := testCatalog(t)
	g := MustBuildSQL(`select state, count(*) as c from trans, loc
		where flid = lid and qty > 2 group by state having count(*) > 1`, cat)
	c := g.Clone()
	// Same structure.
	if len(c.Boxes()) != len(g.Boxes()) {
		t.Fatalf("box count differs: %d vs %d", len(c.Boxes()), len(g.Boxes()))
	}
	// No shared boxes or quantifiers.
	origBoxes := map[*Box]bool{}
	for _, b := range g.Boxes() {
		origBoxes[b] = true
	}
	for _, b := range c.Boxes() {
		if origBoxes[b] {
			t.Fatal("clone shares a box with the original")
		}
		for _, q := range b.Quantifiers {
			for _, ob := range g.Boxes() {
				for _, oq := range ob.Quantifiers {
					if q == oq {
						t.Fatal("clone shares a quantifier")
					}
				}
			}
		}
	}
	// Mutating the clone leaves the original printable/intact.
	before := g.SQL()
	c.Root.Preds = nil
	c.Root.Cols = c.Root.Cols[:1]
	if g.SQL() != before {
		t.Fatal("mutating the clone changed the original")
	}
}
