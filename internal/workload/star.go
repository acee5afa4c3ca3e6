// Package workload generates the paper's sample database (Figure 1): a
// credit-card star schema with a Trans fact table and PGroup, Loc, Cust and
// Acct dimension tables connected by RI constraints, plus synthetic data
// whose cardinality profile matches the paper's narrative — "the average
// customer performs a few hundred transactions per year, most of them within
// the same city", which makes AST1 roughly a hundred times smaller than
// Trans.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// StarConfig parameterizes the generator. Zero fields take defaults from
// DefaultStarConfig scaled by NumTrans.
type StarConfig struct {
	NumTrans  int
	NumAccts  int // default: NumTrans/500 (a few hundred transactions/account)
	NumCusts  int // default: NumAccts/2
	NumLocs   int // default: 200
	NumGroups int // default: 50
	Years     int // default: 3 (1990..1992)
	FirstYear int // default: 1990
	Seed      int64
}

// withDefaults fills unset fields.
func (c StarConfig) withDefaults() StarConfig {
	if c.NumTrans == 0 {
		c.NumTrans = 10000
	}
	if c.NumAccts == 0 {
		c.NumAccts = maxInt(4, c.NumTrans/500)
	}
	if c.NumCusts == 0 {
		c.NumCusts = maxInt(2, c.NumAccts/2)
	}
	if c.NumLocs == 0 {
		c.NumLocs = 200
	}
	if c.NumGroups == 0 {
		c.NumGroups = 50
	}
	if c.Years == 0 {
		c.Years = 3
	}
	if c.FirstYear == 0 {
		c.FirstYear = 1990
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// countries and states used by the Loc dimension. USA gets the majority of
// locations so the paper's `country = 'USA'` predicates are selective but not
// degenerate.
var countries = []string{"USA", "Canada", "Mexico", "Germany", "Japan"}
var usStates = []string{"CA", "NY", "TX", "WA", "IL", "MA", "FL", "OR", "CO", "GA"}
var otherStates = map[string][]string{
	"Canada":  {"ON", "BC", "QC"},
	"Mexico":  {"JAL", "NLE"},
	"Germany": {"BY", "BE"},
	"Japan":   {"13", "27"},
}

var productNames = []string{"TV", "Radio", "Laptop", "Phone", "Camera", "Blender",
	"Sofa", "Desk", "Lamp", "Bike", "Guitar", "Watch", "Shoes", "Jacket", "Book"}

// Schema registers the Figure 1 tables and RI constraints in a catalog.
func Schema(cat *catalog.Catalog) {
	cat.MustAddTable(&catalog.Table{
		Name: "pgroup",
		Columns: []catalog.Column{
			{Name: "pgid", Type: sqltypes.KindInt},
			{Name: "pgname", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"pgid"},
	})
	cat.MustAddTable(&catalog.Table{
		Name: "loc",
		Columns: []catalog.Column{
			{Name: "lid", Type: sqltypes.KindInt},
			{Name: "city", Type: sqltypes.KindString},
			{Name: "state", Type: sqltypes.KindString},
			{Name: "country", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"lid"},
	})
	cat.MustAddTable(&catalog.Table{
		Name: "cust",
		Columns: []catalog.Column{
			{Name: "cid", Type: sqltypes.KindInt},
			{Name: "cname", Type: sqltypes.KindString},
			{Name: "age", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"cid"},
	})
	cat.MustAddTable(&catalog.Table{
		Name: "acct",
		Columns: []catalog.Column{
			{Name: "aid", Type: sqltypes.KindInt},
			{Name: "acid", Type: sqltypes.KindInt},
			{Name: "status", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"aid"},
	})
	cat.MustAddTable(&catalog.Table{
		Name: "trans",
		Columns: []catalog.Column{
			{Name: "tid", Type: sqltypes.KindInt},
			{Name: "faid", Type: sqltypes.KindInt},
			{Name: "fpgid", Type: sqltypes.KindInt},
			{Name: "flid", Type: sqltypes.KindInt},
			{Name: "date", Type: sqltypes.KindDate},
			{Name: "qty", Type: sqltypes.KindInt},
			{Name: "price", Type: sqltypes.KindFloat},
			{Name: "disc", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"tid"},
	})
	cat.MustAddForeignKey(catalog.ForeignKey{
		ChildTable: "trans", ChildCols: []string{"faid"},
		ParentTable: "acct", ParentCols: []string{"aid"},
	})
	cat.MustAddForeignKey(catalog.ForeignKey{
		ChildTable: "trans", ChildCols: []string{"fpgid"},
		ParentTable: "pgroup", ParentCols: []string{"pgid"},
	})
	cat.MustAddForeignKey(catalog.ForeignKey{
		ChildTable: "trans", ChildCols: []string{"flid"},
		ParentTable: "loc", ParentCols: []string{"lid"},
	})
	cat.MustAddForeignKey(catalog.ForeignKey{
		ChildTable: "acct", ChildCols: []string{"acid"},
		ParentTable: "cust", ParentCols: []string{"cid"},
	})
}

// Load generates data per config into the store (whose tables must already be
// in the catalog — call Schema first), publishing each table once. It returns
// the configuration actually used (with defaults filled).
func Load(cat *catalog.Catalog, store *storage.Store, cfg StarConfig) StarConfig {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	put := func(name string, rows [][]sqltypes.Value) {
		t, ok := cat.Table(name)
		if !ok {
			panic(fmt.Sprintf("workload: table %q not in catalog; call Schema first", name))
		}
		store.PutRows(t, rows)
	}

	// PGroup.
	var pg [][]sqltypes.Value
	for i := 0; i < cfg.NumGroups; i++ {
		name := productNames[i%len(productNames)]
		if i >= len(productNames) {
			name = fmt.Sprintf("%s-%d", name, i/len(productNames))
		}
		pg = append(pg, []sqltypes.Value{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(name)})
	}
	put("pgroup", pg)

	// Loc: ~70% USA.
	var loc [][]sqltypes.Value
	for i := 0; i < cfg.NumLocs; i++ {
		var country, state string
		if i%10 < 7 {
			country = "USA"
			state = usStates[rng.Intn(len(usStates))]
		} else {
			country = countries[1+rng.Intn(len(countries)-1)]
			ss := otherStates[country]
			state = ss[rng.Intn(len(ss))]
		}
		city := fmt.Sprintf("City%03d", i+1)
		loc = append(loc, []sqltypes.Value{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(city),
			sqltypes.NewString(state), sqltypes.NewString(country)})
	}
	put("loc", loc)

	// Cust.
	var cust [][]sqltypes.Value
	for i := 0; i < cfg.NumCusts; i++ {
		cust = append(cust, []sqltypes.Value{sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("Customer%05d", i+1)),
			sqltypes.NewInt(int64(18 + rng.Intn(70)))})
	}
	put("cust", cust)

	// Acct: each belongs to a customer; status mostly active.
	var acct [][]sqltypes.Value
	statuses := []string{"active", "active", "active", "closed", "frozen"}
	for i := 0; i < cfg.NumAccts; i++ {
		acct = append(acct, []sqltypes.Value{sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewInt(int64(1 + rng.Intn(cfg.NumCusts))),
			sqltypes.NewString(statuses[rng.Intn(len(statuses))])})
	}
	put("acct", acct)

	// Trans: each account has a home location; 85% of its transactions are in
	// the home location, the rest uniform. Dates spread over the year range.
	trans := make([][]sqltypes.Value, 0, cfg.NumTrans)
	home := make([]int, cfg.NumAccts)
	for i := range home {
		home[i] = 1 + rng.Intn(cfg.NumLocs)
	}
	daysInMonth := [13]int{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	for i := 0; i < cfg.NumTrans; i++ {
		aid := 1 + rng.Intn(cfg.NumAccts)
		lid := home[aid-1]
		if rng.Intn(100) >= 85 {
			lid = 1 + rng.Intn(cfg.NumLocs)
		}
		pgid := 1 + rng.Intn(cfg.NumGroups)
		year := cfg.FirstYear + rng.Intn(cfg.Years)
		month := 1 + rng.Intn(12)
		day := 1 + rng.Intn(daysInMonth[month])
		qty := 1 + rng.Intn(5)
		price := float64(1+rng.Intn(5000)) / 10.0
		disc := float64(rng.Intn(30)) / 100.0
		trans = append(trans, []sqltypes.Value{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewInt(int64(aid)),
			sqltypes.NewInt(int64(pgid)),
			sqltypes.NewInt(int64(lid)),
			sqltypes.NewDate(year, month, day),
			sqltypes.NewInt(int64(qty)),
			sqltypes.NewFloat(price),
			sqltypes.NewFloat(disc),
		})
	}
	put("trans", trans)
	return cfg
}
