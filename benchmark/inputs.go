package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The benchmark's inputs are frozen here: the SQL below is a copy of the
// paper suite (internal/bench) and the DS suite (internal/workload) as of the
// commit that defined the benchmark, so a later edit to either package cannot
// silently change what is measured.

// defaultSeed is the seed the repo's earlier BENCH files used.
const defaultSeed = 20000521

// starConfig is the Figure-1 star schema sizing, every field explicit so a
// change to the generator's defaults cannot resize the inputs.
func starConfig(numTrans int, seed int64) workload.StarConfig {
	return workload.StarConfig{
		NumTrans:  numTrans,
		NumAccts:  200,
		NumCusts:  100,
		NumLocs:   200,
		NumGroups: 50,
		Years:     3,
		FirstYear: 1990,
		Seed:      seed,
	}
}

const (
	fullTrans  = 100000
	smokeTrans = 2000
)

// namedSQL is one statement or summary-table definition.
type namedSQL struct {
	name, sql string
}

// summaryTables is the deployed set: the paper's ast1/ast6/ast7 plus the DS
// suite's seven tables (ISSUE 12 says eight; internal/workload.DSASTs has
// seven, so the set is ten).
var summaryTables = []namedSQL{
	{"ast1", `select faid, flid, year(date) as year, count(*) as cnt
		from trans group by faid, flid, year(date)`},
	{"ast6", `select year(date) as year, month(date) as month, sum(qty * price) as value
		from trans group by year(date), month(date)`},
	{"ast7", `select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)`},
	{"st_product_month", `select fpgid, year(date) as year, month(date) as month,
		count(*) as cnt, sum(qty) as sum_qty,
		sum(qty * price) as gross, sum(qty * price * (1 - disc)) as net,
		sum(price) as sum_price, count(price) as cnt_price,
		min(price) as lo, max(price) as hi
		from trans group by fpgid, year(date), month(date)`},
	{"st_loc_year", `select flid, year(date) as year, month(date) as month,
		count(*) as cnt, sum(qty * price * (1 - disc)) as revenue
		from trans group by flid, year(date), month(date)`},
	{"st_acct_year", `select faid, year(date) as year, count(*) as cnt, sum(qty * price) as spend
		from trans group by faid, year(date)`},
	{"st_disc_year", `select year(date) as year, disc, count(*) as cnt,
		sum(qty * price * disc) as givenaway
		from trans group by year(date), disc`},
	{"st_loc_month_detail", `select flid, year(date) as y, month(date) as m, count(*) as n
		from trans group by flid, year(date), month(date)`},
	{"st_acct_spend", `select faid, sum(qty * price) as spend, count(*) as cnt,
		sum(price) as sp, count(price) as cp
		from trans group by faid`},
	{"st_product_basket", `select fpgid, year(date) as year, count(*) as cnt,
		sum(qty * price) as gross, count(qty * price) as nbaskets
		from trans group by fpgid, year(date)`},
}

// stmt is one statement of the mix. sql is the fixed text the dash-cached,
// base-scan and maintain-mixed workloads send. adhoc is the same statement
// with its WHERE/HAVING literals replaced by {slots} (see adhocText); it is
// empty for the two statements no summary table serves.
type stmt struct {
	name  string
	sql   string
	adhoc string
}

// statements is the 25-statement mix: the paper's q1–q12 + qbad and the DS
// suite's ds1–ds12. q2 and q11_3 are the two that no deployed summary table
// serves; they are what the ROADMAP's "45× p99 tail" was.
var statements = []stmt{
	{"q1", `select faid, state, year(date) as year, count(*) as cnt
		from trans, loc where flid = lid and country = 'USA'
		group by faid, state, year(date) having count(*) > 3`,
		`select faid, state, year(date) as year, count(*) as cnt
		from trans, loc where flid = lid and country = '{country}'
		group by faid, state, year(date) having count(*) > {k}.{u}`},
	{"q2", `select aid, status, qty * price * (1 - disc) as amt
		from trans, pgroup, acct
		where pgid = fpgid and faid = aid
		and price > 100 and disc > 0.1 and pgname = 'TV'`, ""},
	{"q4", `select year(date) as year, sum(qty * price) as value
		from trans group by year(date)`,
		`select year(date) as year, sum(qty * price) as value
		from trans group by year(date) having sum(qty * price) > {k}.{u}`},
	{"q6", `select year(date) % 100 as yy, sum(qty * price) as value
		from trans where month(date) >= 6 group by year(date) % 100`,
		`select year(date) % 100 as yy, sum(qty * price) as value
		from trans where month(date) >= {m} group by year(date) % 100
		having sum(qty * price) > {k}.{u}`},
	{"q7", `select lid, year(date) as year, count(*) as cnt
		from trans, loc where flid = lid and country = 'USA'
		group by lid, year(date)`,
		`select lid, year(date) as year, count(*) as cnt
		from trans, loc where flid = lid and country = '{country}'
		group by lid, year(date) having count(*) > {k}.{u}`},
	{"q8", `select tcnt, count(*) as ycnt
		from (select year(date) as year, month(date) as month, count(*) as tcnt
		      from trans group by year(date), month(date)) m
		group by tcnt`,
		`select tcnt, count(*) as ycnt
		from (select year(date) as year, month(date) as month, count(*) as tcnt
		      from trans group by year(date), month(date)) m
		where tcnt > {k}.{u} group by tcnt`},
	{"q10", `select flid, count(*) * 100 / (select count(*) from trans) as cntpct
		from trans, loc where flid = lid and country = 'USA'
		group by flid having count(*) > 2`,
		`select flid, count(*) * 100 / (select count(*) from trans) as cntpct
		from trans, loc where flid = lid and country = '{country}'
		group by flid having count(*) > {k}.{u}`},
	{"q11_1", `select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > 1990 group by flid, year(date)`,
		`select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > {y} group by flid, year(date)
		having count(*) > {k}.{u}`},
	{"q11_2", `select flid, year(date) as year, count(*) as cnt
		from trans where month(date) >= 6 group by flid, year(date)`,
		`select flid, year(date) as year, count(*) as cnt
		from trans where month(date) >= {m} group by flid, year(date)
		having count(*) > {k}.{u}`},
	{"q11_3", `select flid, year(date) as year, month(date) as month,
		count(distinct faid) as custcnt
		from trans group by flid, year(date), month(date)`, ""},
	{"q12_1", `select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > 1990
		group by grouping sets((flid, year(date)), (year(date)))`,
		`select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > {y}
		group by grouping sets((flid, year(date)), (year(date)))
		having count(*) > {k}.{u}`},
	{"q12_2", `select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > 1990
		group by grouping sets((flid), (year(date)))`,
		`select flid, year(date) as year, count(*) as cnt
		from trans where year(date) > {y}
		group by grouping sets((flid), (year(date)))
		having count(*) > {k}.{u}`},
	{"qbad", `select flid, count(*) as cnt from trans group by flid`,
		`select flid, count(*) as cnt from trans group by flid
		having count(*) > {k}.{u}`},
	{"ds1", `select fpgid, year(date) as year,
		count(*) as cnt, sum(qty) as sum_qty,
		sum(qty * price) as gross, sum(qty * price * (1 - disc)) as net,
		avg(price) as avg_price
		from trans group by fpgid, year(date)`,
		`select fpgid, year(date) as year,
		count(*) as cnt, sum(qty) as sum_qty,
		sum(qty * price) as gross, sum(qty * price * (1 - disc)) as net,
		avg(price) as avg_price
		from trans group by fpgid, year(date) having count(*) > {k}.{u}`},
	{"ds2", `select state, year(date) as year, sum(qty * price * (1 - disc)) as revenue
		from trans, loc where flid = lid and country = 'USA'
		group by state, year(date)`,
		`select state, year(date) as year, sum(qty * price * (1 - disc)) as revenue
		from trans, loc where flid = lid and country = '{country}'
		group by state, year(date)
		having sum(qty * price * (1 - disc)) > {k}.{u}`},
	{"ds3", `select faid, sum(qty * price) as spend, count(*) as cnt
		from trans where year(date) >= 1991
		group by faid having sum(qty * price) > 10000`,
		`select faid, sum(qty * price) as spend, count(*) as cnt
		from trans where year(date) >= {y}
		group by faid having sum(qty * price) > {spend}.{u}`},
	{"ds4", `select fpgid, count(*) as cnt, sum(qty) as items
		from trans where month(date) >= 7 group by fpgid`,
		`select fpgid, count(*) as cnt, sum(qty) as items
		from trans where month(date) >= {m} group by fpgid
		having count(*) > {k}.{u}`},
	{"ds5", `select year(date) as year, sum(qty * price * disc) as givenaway
		from trans where disc > 0.1 group by year(date)`,
		`select year(date) as year, sum(qty * price * disc) as givenaway
		from trans where disc > 0.{dd}{u} group by year(date)`},
	{"ds6", `select flid, count(*) as busy_months
		from (select flid, year(date) as y, month(date) as m, count(*) as n
		      from trans group by flid, year(date), month(date)) mm
		where n > 5 group by flid`,
		`select flid, count(*) as busy_months
		from (select flid, year(date) as y, month(date) as m, count(*) as n
		      from trans group by flid, year(date), month(date)) mm
		where n > {n}.{u} group by flid`},
	{"ds7", `select country, year(date) as year, count(*) as cnt,
		(select count(*) from trans) as total
		from trans, loc where flid = lid
		group by country, year(date)`,
		`select country, year(date) as year, count(*) as cnt,
		(select count(*) from trans) as total
		from trans, loc where flid = lid
		group by country, year(date) having count(*) > {k}.{u}`},
	{"ds8", `select fpgid, year(date) as year, min(price) as lo, max(price) as hi
		from trans group by fpgid, year(date)`,
		`select fpgid, year(date) as year, min(price) as lo, max(price) as hi
		from trans group by fpgid, year(date) having max(price) > {k}.{u}`},
	{"ds9", `select city, count(*) as cnt
		from trans, loc where flid = lid group by city`,
		`select city, count(*) as cnt
		from trans, loc where flid = lid group by city
		having count(*) > {k}.{u}`},
	{"ds10", `select fpgid, year(date) as year, count(*) as cnt
		from trans group by rollup(fpgid, year(date))`,
		`select fpgid, year(date) as year, count(*) as cnt
		from trans group by rollup(fpgid, year(date))
		having count(*) > {k}.{u}`},
	{"ds11", `select faid, spend
		from (select faid, sum(qty * price) as spend from trans group by faid) a
		where spend > (select sum(qty * price) / count(distinct faid) from trans)`,
		`select faid, spend
		from (select faid, sum(qty * price) as spend from trans group by faid) a
		where spend > (select sum(qty * price) / count(distinct faid) from trans)
		and spend > {spend}.{u}`},
	{"ds12", `select year(date) as year, avg(qty * price) as avg_basket
		from trans group by year(date)`,
		`select year(date) as year, avg(qty * price) as avg_basket
		from trans group by year(date) having avg(qty * price) > {k}.{u}`},
}

// servedStatements is the mix without the statements no summary table serves.
func servedStatements() []stmt {
	var out []stmt
	for _, s := range statements {
		if s.adhoc != "" {
			out = append(out, s)
		}
	}
	return out
}

// shuffled returns the statements in an order drawn from the seed.
func shuffled(in []stmt, seed int64) []stmt {
	out := append([]stmt(nil), in...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var adhocCountries = []string{"USA", "Canada", "Mexico", "Germany", "Japan"}

// adhocText fills a template's slots from rng and returns two texts: the one
// sent over the wire and a twin for the in-process layer replays of a traced
// run. The twin differs only in {u}, four fractional digits appended to a
// threshold, so it selects the same rows but is a different plan-cache key —
// a replay of the wire text itself would hit the entry the wire call just
// stored and skip the work the replay is there to time. {u} also makes nearly
// every text of a run distinct, so the 256-entry plan cache cannot help.
func adhocText(tmpl string, rng *rand.Rand) (wire, twin string) {
	lits := []string{
		"{country}", adhocCountries[rng.Intn(len(adhocCountries))],
		"{y}", fmt.Sprint(1989 + rng.Intn(3)),
		"{m}", fmt.Sprint(1 + rng.Intn(12)),
		"{k}", fmt.Sprint(rng.Intn(4)),
		"{n}", fmt.Sprint(3 + rng.Intn(6)),
		"{dd}", fmt.Sprintf("%02d", rng.Intn(25)),
		"{spend}", fmt.Sprint(5000 + rng.Intn(20000)),
	}
	u := rng.Intn(9999)
	fill := func(u int) string {
		return strings.NewReplacer(append(lits[:len(lits):len(lits)], "{u}", fmt.Sprintf("%04d", u))...).Replace(tmpl)
	}
	return fill(u), fill(u + 1)
}

// dmlBatchRows is the INSERT batch size of the maintain-mixed writer, and
// dmlDeleteLag how many cycles later a batch is deleted again, which keeps
// the fact table's size constant.
const (
	dmlBatchRows = 64
	dmlDeleteLag = 8
	dmlFirstTid  = 10_000_000
)

// dmlBatch is one writer cycle: INSERT a batch of fresh keys, UPDATE it,
// DELETE the batch inserted dmlDeleteLag cycles earlier. rows is the INSERT's
// batch as engine values, for the traced run's direct Maintainer calls.
type dmlBatch struct {
	texts [3]string
	rows  [][]sqltypes.Value
}

var dmlKinds = [3]string{"insert", "update", "delete"}

// newDMLBatch builds cycle's statements. Cycles count from 0; the first
// dmlDeleteLag are primed with dmlInsert alone, so every DELETE finds its rows.
func newDMLBatch(cycle int, cfg workload.StarConfig, rng *rand.Rand) dmlBatch {
	lo := dmlFirstTid + cycle*dmlBatchRows
	old := lo - dmlDeleteLag*dmlBatchRows
	var b dmlBatch
	b.texts[0], b.rows = dmlInsert(cycle, cfg, rng)
	b.texts[1] = fmt.Sprintf("update trans set qty = qty + 1 where tid >= %d and tid < %d", lo, lo+dmlBatchRows)
	b.texts[2] = fmt.Sprintf("delete from trans where tid >= %d and tid < %d", old, old+dmlBatchRows)
	return b
}

// dmlInsert builds one cycle's INSERT with the same value distributions as
// workload.Load, so the new rows land in existing and new groups alike.
func dmlInsert(cycle int, cfg workload.StarConfig, rng *rand.Rand) (string, [][]sqltypes.Value) {
	var sb strings.Builder
	sb.WriteString("insert into trans values ")
	rows := make([][]sqltypes.Value, dmlBatchRows)
	for i := range rows {
		tid := dmlFirstTid + cycle*dmlBatchRows + i
		aid, pgid, lid := 1+rng.Intn(cfg.NumAccts), 1+rng.Intn(cfg.NumGroups), 1+rng.Intn(cfg.NumLocs)
		y, m, d := cfg.FirstYear+rng.Intn(cfg.Years), 1+rng.Intn(12), 1+rng.Intn(28)
		qty := 1 + rng.Intn(5)
		price, disc := float64(1+rng.Intn(5000))/10, float64(rng.Intn(30))/100
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, '%04d-%02d-%02d', %d, %.1f, %.2f)",
			tid, aid, pgid, lid, y, m, d, qty, price, disc)
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(tid)), sqltypes.NewInt(int64(aid)), sqltypes.NewInt(int64(pgid)),
			sqltypes.NewInt(int64(lid)), sqltypes.NewDate(y, m, d), sqltypes.NewInt(int64(qty)),
			sqltypes.NewFloat(price), sqltypes.NewFloat(disc),
		}
	}
	return sb.String(), rows
}

// generatorHash is the hash of the tables workload.Load makes for
// starConfig(smokeTrans, defaultSeed). Every run loads that small database
// first and refuses to measure if the hash moved: the generator drifted, and
// numbers from before and after the drift are not comparable.
const generatorHash = "3b05793fc0c6fc87"

var baseTables = []string{"acct", "cust", "loc", "pgroup", "trans"}

// tablesHash hashes the base tables, rows in stored order.
func tablesHash(store *storage.Store) (string, error) {
	h := fnv.New64a()
	for _, name := range baseTables {
		rows, err := store.Scan(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s:%d\n", name, len(rows))
		for _, r := range rows {
			for _, v := range r {
				h.Write([]byte(v.GroupKey()))
				h.Write([]byte{0})
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checkGenerator is the input guard described at generatorHash.
func checkGenerator() error {
	cat := catalog.New()
	store := storage.NewStore()
	workload.Schema(cat)
	workload.Load(cat, store, starConfig(smokeTrans, defaultSeed))
	got, err := tablesHash(store)
	if err != nil {
		return err
	}
	if got != generatorHash {
		return fmt.Errorf("input guard: workload.Load produced table hash %s, benchmark was defined on %s; the generator drifted", got, generatorHash)
	}
	return nil
}
