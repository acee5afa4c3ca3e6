package workload

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

func loadSmall(t *testing.T, seed int64) (*catalog.Catalog, *storage.Store, StarConfig) {
	t.Helper()
	cat := catalog.New()
	Schema(cat)
	store := storage.NewStore()
	cfg := Load(cat, store, StarConfig{NumTrans: 2000, Seed: seed})
	return cat, store, cfg
}

func TestSchemaTablesAndFKs(t *testing.T) {
	cat := catalog.New()
	Schema(cat)
	for _, name := range []string{"trans", "loc", "pgroup", "acct", "cust"} {
		if _, ok := cat.Table(name); !ok {
			t.Errorf("missing table %s", name)
		}
	}
	if len(cat.ForeignKeys()) != 4 {
		t.Fatalf("want 4 RI constraints, got %d", len(cat.ForeignKeys()))
	}
	// The Figure 1 arrows must be provable lossless joins.
	cases := [][4]string{
		{"trans", "faid", "acct", "aid"},
		{"trans", "fpgid", "pgroup", "pgid"},
		{"trans", "flid", "loc", "lid"},
		{"acct", "acid", "cust", "cid"},
	}
	for _, c := range cases {
		if !cat.LosslessJoin(c[0], []string{c[1]}, c[2], []string{c[3]}) {
			t.Errorf("join %s.%s → %s.%s not lossless", c[0], c[1], c[2], c[3])
		}
	}
}

func TestLoadCardinalities(t *testing.T) {
	_, store, cfg := loadSmall(t, 1)
	if store.MustTable("trans").Cardinality() != cfg.NumTrans {
		t.Errorf("trans rows: %d", store.MustTable("trans").Cardinality())
	}
	if store.MustTable("acct").Cardinality() != cfg.NumAccts {
		t.Errorf("acct rows: %d", store.MustTable("acct").Cardinality())
	}
	if store.MustTable("loc").Cardinality() != cfg.NumLocs {
		t.Errorf("loc rows: %d", store.MustTable("loc").Cardinality())
	}
}

// TestReferentialIntegrity checks that generated data actually satisfies the
// declared RI constraints (the matching algorithm's losslessness proofs rely
// on them).
func TestReferentialIntegrity(t *testing.T) {
	_, store, _ := loadSmall(t, 2)
	keys := func(table string, col int) map[int64]bool {
		out := map[int64]bool{}
		for _, r := range store.MustTable(table).Snapshot() {
			out[r[col].Int()] = true
		}
		return out
	}
	accts := keys("acct", 0)
	pgs := keys("pgroup", 0)
	locs := keys("loc", 0)
	custs := keys("cust", 0)
	for _, r := range store.MustTable("trans").Snapshot() {
		if !accts[r[1].Int()] {
			t.Fatalf("dangling faid %d", r[1].Int())
		}
		if !pgs[r[2].Int()] {
			t.Fatalf("dangling fpgid %d", r[2].Int())
		}
		if !locs[r[3].Int()] {
			t.Fatalf("dangling flid %d", r[3].Int())
		}
	}
	for _, r := range store.MustTable("acct").Snapshot() {
		if !custs[r[1].Int()] {
			t.Fatalf("dangling acid %d", r[1].Int())
		}
	}
}

func TestValidDatesAndRanges(t *testing.T) {
	_, store, cfg := loadSmall(t, 3)
	for _, r := range store.MustTable("trans").Snapshot() {
		d := r[4]
		if d.Kind() != sqltypes.KindDate {
			t.Fatalf("date column kind %v", d.Kind())
		}
		y, m, day := d.DateYear(), d.DateMonth(), d.DateDay()
		if y < int64(cfg.FirstYear) || y >= int64(cfg.FirstYear+cfg.Years) {
			t.Fatalf("year out of range: %d", y)
		}
		if m < 1 || m > 12 || day < 1 || day > 31 {
			t.Fatalf("bad date %v", d)
		}
		if q := r[5].Int(); q < 1 || q > 5 {
			t.Fatalf("qty out of range: %d", q)
		}
		if disc := r[7].Float(); disc < 0 || disc >= 0.3 {
			t.Fatalf("disc out of range: %f", disc)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	_, s1, _ := loadSmall(t, 42)
	_, s2, _ := loadSmall(t, 42)
	a, b := s1.MustTable("trans").Snapshot(), s2.MustTable("trans").Snapshot()
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		for j := range a[i] {
			if !sqltypes.Identical(a[i][j], b[i][j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	_, s3, _ := loadSmall(t, 43)
	c := s3.MustTable("trans").Snapshot()
	same := true
	for i := range a {
		if !sqltypes.Identical(a[i][4], c[i][4]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestHomeLocationSkew: the paper's narrative needs most of an account's
// transactions in one location, so per-(account, location, year) summaries
// compress well.
func TestHomeLocationSkew(t *testing.T) {
	_, store, _ := loadSmall(t, 4)
	// Count per-account distinct locations vs transactions.
	perAcct := map[int64]map[int64]int{}
	for _, r := range store.MustTable("trans").Snapshot() {
		aid, lid := r[1].Int(), r[3].Int()
		if perAcct[aid] == nil {
			perAcct[aid] = map[int64]int{}
		}
		perAcct[aid][lid]++
	}
	dominated := 0
	for _, locs := range perAcct {
		total, best := 0, 0
		for _, n := range locs {
			total += n
			if n > best {
				best = n
			}
		}
		if total >= 10 && float64(best) >= 0.5*float64(total) {
			dominated++
		}
	}
	if dominated < len(perAcct)/2 {
		t.Fatalf("home-location skew too weak: %d/%d accounts dominated", dominated, len(perAcct))
	}
}

func TestDefaultsScaleWithTrans(t *testing.T) {
	cfg := StarConfig{NumTrans: 100000}.withDefaults()
	if cfg.NumAccts != 200 {
		t.Errorf("NumAccts default: %d", cfg.NumAccts)
	}
	if cfg.NumCusts != 100 || cfg.Years != 3 || cfg.FirstYear != 1990 {
		t.Errorf("defaults: %+v", cfg)
	}
}
