package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// Tracing is done from outside: the benchmark times its own calls into each
// module's public functions and records one span per call. A statement's
// spans hang under one root ("stmt"); the wire call is the "client" span, and
// the in-process replays of the same statement, layer by layer, are its
// siblings (see replayPasses). Per-layer metrics are medians over statements
// of these spans.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Stmt   string `json:"stmt,omitempty"` // roots only: the statement's name
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The reader and the writer
// goroutine both record into it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a root span and returns its id; it ends when the last span
// recorded under it ends.
func (t *tracer) open(stmt string, began time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(began.Sub(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: "stmt", Stmt: stmt, Start: start, End: start})
	return len(t.spans)
}

// record adds a finished span under parent and returns its id. Only the root
// is stretched to cover it: a replay is filed under the span whose time it
// explains (exec.run under astdb.query), but it ran later, on its own.
func (t *tracer) record(parent int, name string, began time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(began.Sub(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: start + int64(d)})
	root := parent
	for t.spans[root-1].Parent != 0 {
		root = t.spans[root-1].Parent
	}
	if end := start + int64(d); end > t.spans[root-1].End {
		t.spans[root-1].End = end
	}
	return len(t.spans)
}

// timed runs f and records it as a child of parent.
func (t *tracer) timed(parent int, name string, f func()) int {
	began := time.Now()
	f()
	return t.record(parent, name, began, time.Since(began))
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// stmtSpans is one statement's spans, by name, in µs: each span's duration,
// and the summed duration of its direct children (a span's self time is the
// first minus the second). A name recorded twice under one root is summed.
type stmtSpans struct {
	dur, kids map[string]float64
}

func (s stmtSpans) self(name string) float64 { return s.dur[name] - s.kids[name] }

// byStatement groups the spans by root.
func (t *tracer) byStatement() []stmtSpans {
	root := make([]int, len(t.spans)+1)
	idx := map[int]int{}
	var out []stmtSpans
	for _, s := range t.spans {
		if s.Parent == 0 {
			root[s.ID] = s.ID
			idx[s.ID] = len(out)
			out = append(out, stmtSpans{dur: map[string]float64{}, kids: map[string]float64{}})
			continue
		}
		root[s.ID] = root[s.Parent]
		d := float64(s.End-s.Start) / 1e3
		st := out[idx[root[s.ID]]]
		st.dur[s.Name] += d
		st.kids[t.spans[s.Parent-1].Name] += d
	}
	return out
}

// probes are the benchmark's own instances of each layer over the system's
// catalog and store, so that a layer can be called and timed on its own. They
// report to no observer, so the engine's counters count only what the engine
// itself did.
type probes struct {
	rw    *core.Rewriter
	asts  []*core.CompiledAST
	cache *core.PlanCache
	exe   *exec.Engine
	maint *maintain.Maintainer
	plans []*maintain.Plan

	// Tallies of what the replays saw; the engine's observer counts the rest.
	wireBytes   int64 // request + response frame bytes of the replayed results
	replays     int
	rewritten   int // replays whose chosen plan reads a summary table
	incremental int // summary-table refreshes by the benchmark's own Maintainer
	full        int
	groups      int // delta groups those incremental refreshes merged
}

func newProbes(sys *system) *probes {
	p := &probes{
		rw:    core.NewRewriter(sys.cat, core.Options{}),
		asts:  sys.db.ASTs(),
		cache: core.NewPlanCache(0),
		exe:   exec.NewEngine(sys.db.Store()),
		maint: maintain.New(sys.db.Store()).WithCatalog(sys.cat),
	}
	for _, ca := range p.asts {
		p.plans = append(p.plans, p.maint.Analyze(ca))
	}
	return p
}

// sent is one statement of a traced cycle between passes: what went over the
// wire, the spans it has so far, and what later passes need from earlier ones.
type sent struct {
	name, text, twin string
	root             int        // the statement's root span
	query            int        // its astdb.query span
	hit              bool       // the engine answered the replay from its plan cache
	plan             *qgm.Graph // the plan the benchmark's own rewriter chose
	failed           bool
}

// replayPasses are the layer-by-layer replays of a traced cycle. Each pass
// runs over all the cycle's statements before the next pass starts, in the
// cycle's order, so a replay meets the caches — CPU and plan — in the state
// the server met them in: last used one cycle ago. Replaying a statement's
// layers back to back instead would time them warm, and their sum would fall
// well short of what the client saw.
var replayPasses = []func(*bench, context.Context, *sent) error{
	(*bench).replayPing,
	(*bench).replayEngine,
	(*bench).replayCompile,
	(*bench).replayExec,
}

// replayCycle runs the passes over the statements a traced cycle sent. A
// layer that cannot answer what the server answered is a failure.
func (b *bench) replayCycle(ctx context.Context, cycle []sent) {
	for _, pass := range replayPasses {
		for i := range cycle {
			st := &cycle[i]
			if st.failed {
				continue
			}
			if err := pass(b, ctx, st); err != nil {
				st.failed = true
				b.count(0, fmt.Sprintf("replay of %s: %v", st.name, err))
			}
		}
	}
}

// replayPing times the floor of a round trip: TCP, framing and dispatch, with
// nothing to do at the far end.
func (b *bench) replayPing(ctx context.Context, st *sent) (err error) {
	b.tr.timed(st.root, "server.ping_rtt", func() { err = b.reader.conn.PingContext(ctx) })
	return err
}

// replayEngine times the whole engine, in process.
func (b *bench) replayEngine(ctx context.Context, st *sent) (err error) {
	st.query = b.tr.timed(st.root, "astdb.query", func() {
		ans, qerr := b.sys.db.Query(ctx, st.twin)
		if err = qerr; err == nil {
			st.hit = ans.CacheHit
		}
	})
	return err
}

// replayCompile times the steps from text to plan, one by one. A step is
// recorded under astdb.query only when the engine ran it for this statement —
// parse, build and rewrite on a plan-cache miss, the probe's clone on a hit —
// so that astdb.query's self time is what its parts do not explain.
func (b *bench) replayCompile(ctx context.Context, st *sent) (err error) {
	tr, p, sys := b.tr, b.probes, b.sys
	onMiss, onHit := st.query, st.root
	if st.hit {
		onMiss, onHit = st.root, st.query
	}
	var parsed parser.Statement
	tr.timed(onMiss, "parser.parse", func() { parsed, err = parser.ParseStatement(st.twin) })
	if err != nil {
		return err
	}
	sel, ok := parsed.(*parser.SelectStmt)
	if !ok {
		return fmt.Errorf("parsed as %T", parsed)
	}
	var g *qgm.Graph
	tr.timed(onMiss, "qgm.build", func() { g, err = qgm.Build(sel, sys.cat) })
	if err != nil {
		return err
	}

	clone := g.Clone()
	var res *core.Result
	rewrite := tr.timed(onMiss, "core.rewrite", func() {
		res = p.rw.RewriteBestCostCtx(ctx, clone, p.asts, sys.db.Store())
	})
	// The signature prune is the first step inside the rewrite.
	tr.timed(rewrite, "catalog.prune", func() {
		sig := core.ComputeSignature(sys.cat, g)
		for _, ca := range p.asts {
			sys.cat.AdmitsAST(ca.Def.Name, sig, false)
		}
	})
	st.plan = g
	p.replays++
	if res != nil {
		st.plan = clone
		p.rewritten++
	}

	// A probe of a warm key: the first call stores the plan, the second finds it.
	if _, err := p.rw.RewriteSQLCached(ctx, p.cache, st.twin, p.asts, sys.db.Store()); err != nil {
		return err
	}
	tr.timed(onHit, "core.plancache_probe", func() {
		_, err = p.rw.RewriteSQLCached(ctx, p.cache, st.twin, p.asts, sys.db.Store())
	})
	return err
}

// replayExec runs the chosen plan on the benchmark's own executor and sends
// the result through the wire codec, as the server does right after running.
func (b *bench) replayExec(ctx context.Context, st *sent) (err error) {
	tr, p, sys := b.tr, b.probes, b.sys
	var result *exec.Result
	run := tr.timed(st.query, "exec.run", func() { result, err = p.exe.RunCtx(ctx, st.plan, exec.Config{}) })
	if err != nil {
		return err
	}
	tr.timed(run, "storage.scan", func() {
		for _, leaf := range st.plan.Leaves() {
			if _, _, serr := sys.db.Store().ScanChunks(leaf.Table.Name); serr != nil {
				err = serr
			}
		}
	})
	if err != nil {
		return err
	}

	m := &wire.Rows{
		Cols:  result.Cols,
		Kinds: wire.InferKinds(result.Cols, result.Rows),
		Rows:  result.Rows,
		Mode:  result.Mode,
	}
	var payload []byte
	tr.timed(st.root, "wire.encode", func() { payload = m.Encode() })
	tr.timed(st.root, "wire.decode", func() { _, err = wire.DecodeRows(payload) })
	if err != nil {
		return err
	}
	tr.timed(st.root, "wire.frame", func() {
		var buf bytes.Buffer
		if err = wire.WriteFrame(&buf, wire.MsgRows, payload); err == nil {
			_, _, err = wire.ReadFrame(&buf)
		}
	})
	p.wireBytes += int64(5 + len(wire.EncodeString(st.text)) + 5 + len(payload))
	return err
}

// tracedWrite applies statement i of a writer cycle in process instead of
// over the wire: route 1 goes through the engine's ExecStatement, route 2
// through the parser, the DML builder and the benchmark's own Maintainer
// (route 0 is the wire, see writeCycle).
func (b *bench) tracedWrite(ctx context.Context, route, i int, batch dmlBatch) (affected int64, err error) {
	tr, p, sys := b.tr, b.probes, b.sys
	root := tr.open(dmlKinds[i], time.Now())
	text := batch.texts[i]
	if route == 1 {
		tr.timed(root, "astdb.exec_stmt", func() {
			res, xerr := sys.db.ExecStatement(ctx, text)
			if err = xerr; res != nil {
				affected = int64(res.Affected)
			}
		})
		return affected, err
	}

	var stats []maintain.Stats
	if i == 0 {
		tr.timed(root, "storage.insert", func() { err = scratchInsert(sys, batch.rows) })
		if err != nil {
			return 0, err
		}
		tr.timed(root, "maintain.apply_insert", func() {
			stats, err = p.maint.ApplyInsert(p.plans, "trans", batch.rows)
		})
		affected = int64(len(batch.rows))
	} else {
		var parsed parser.Statement
		tr.timed(root, "parser.parse_dml", func() { parsed, err = parser.ParseStatement(text) })
		if err != nil {
			return 0, err
		}
		var dml *qgm.DML
		tr.timed(root, "qgm.build_dml", func() {
			switch s := parsed.(type) {
			case *parser.UpdateStmt:
				dml, err = qgm.BuildUpdate(s, sys.cat)
			case *parser.DeleteStmt:
				dml, err = qgm.BuildDelete(s, sys.cat)
			default:
				err = fmt.Errorf("%s parsed as %T", dmlKinds[i], parsed)
			}
		})
		if err != nil {
			return 0, err
		}
		var n int
		tr.timed(root, "maintain.apply_"+dmlKinds[i], func() {
			if i == 1 {
				n, stats, err = p.maint.ApplyUpdate(p.plans, dml)
			} else {
				n, stats, err = p.maint.ApplyDelete(p.plans, dml)
			}
		})
		affected = int64(n)
	}
	for _, st := range stats {
		if st.Strategy == maintain.Incremental {
			p.incremental++
			p.groups += st.DeltaRows
		} else {
			p.full++
		}
	}
	return affected, err
}

// scratchInsert times the storage layer's share of an INSERT on its own: the
// batch goes into a scratch table with trans's schema that no query reads.
func scratchInsert(sys *system, rows [][]sqltypes.Value) error {
	meta, _ := sys.cat.Table("trans")
	scratch := *meta
	scratch.Name = "bench_scratch"
	td := sys.db.Store().Create(&scratch)
	defer sys.db.Store().Drop(scratch.Name)
	for _, r := range rows {
		if err := td.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// tracedTallies adds the traced trial's metrics that are counts or ratios, not
// span medians. ref is the untraced reference trial that ran just before.
func (b *bench) tracedTallies(out map[string]metric, ts, ref trialStats) {
	p := b.probes
	c := func(name string) float64 { return float64(ts.counters[name]) }
	out["wire.bytes_per_op"] = single(ratio(float64(p.wireBytes), float64(p.replays)))
	out["core.rewritten_share"] = single(ratio(float64(p.rewritten), float64(p.replays)))
	// Quiet latencies: the two trials' experienced medians differ by a
	// quarter on their own on this host, which would drown the overhead.
	out["trace.overhead_share"] = single(ratio(percentile(quietLatencies(ts), 0.5), percentile(quietLatencies(ref), 0.5)) - 1)

	// Maintenance: the engine's observer counted the statements that went
	// over the wire or through ExecStatement, the probes' tallies the rest.
	incremental := c("maintain.refresh.incremental") + float64(p.incremental)
	full := c("maintain.refresh.full") + float64(p.full)
	groups := c("maintain.delta.rows") + c("maintain.dml.deltas") + float64(p.groups)
	out["maintain.incremental_share"] = single(ratio(incremental, incremental+full))
	out["maintain.groups_touched_per_stmt"] = single(ratio(groups, float64(b.wtraced*len(dmlKinds))))
	out["maintain.stale_at_end"] = single(float64(len(b.sys.staleTables())))

	// What incremental maintenance avoids: a full recompute of each summary
	// table, timed once per table now that the clients are idle.
	var fulls []float64
	if b.def.writer {
		for _, plan := range p.plans {
			began := time.Now()
			if _, err := p.maint.RefreshFull(plan); err != nil {
				b.count(1, err.Error())
				continue
			}
			fulls = append(fulls, us(time.Since(began)))
		}
	}
	out["maintain.refresh_full_us"] = metric{Value: median(fulls), N: len(fulls)}
}
