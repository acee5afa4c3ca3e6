package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/workload"
)

// workloadDef is what distinguishes the four workloads; everything else —
// data, server configuration, client loop — is shared.
type workloadDef struct {
	deploy bool // materialise the summary tables
	adhoc  bool // draw fresh literals for every statement
	writer bool // run the DML connection beside the reader
	all    bool // include q2 and q11_3, which no summary table serves
}

var workloadDefs = map[string]workloadDef{
	"dash-cached":    {deploy: true},
	"adhoc-rewrite":  {deploy: true, adhoc: true},
	"base-scan":      {all: true},
	"maintain-mixed": {deploy: true, writer: true},
}

// sizing is how much one run does. The full size is fixed here and in
// BENCHMARK.json's run_seconds; -smoke shrinks every dimension so the whole
// path is exercised in about a second.
type sizing struct {
	numTrans    int
	trials      int
	warmCycles  int
	cycles      int // reader cycles per trial; 0 = whole cycles until the trial's time is up
	writeCycles int // writer cycles per trial, likewise
	sampleEvery int // adhoc-rewrite: every n-th statement is kept for the oracle
}

func sizeFor(smoke bool) sizing {
	if smoke {
		// One writer cycle per route of a traced trial (see writeRoutes).
		return sizing{numTrans: smokeTrans, trials: 1, warmCycles: 1, cycles: 1, writeCycles: writeRoutes, sampleEvery: 1}
	}
	return sizing{numTrans: fullTrans, trials: 5, warmCycles: 2, sampleEvery: 50}
}

// sample is one adhoc-rewrite reply kept for checking after the trials.
type sample struct {
	text string
	rep  reply
}

// bench is the state of one run of one workload.
type bench struct {
	def  workloadDef
	size sizing
	cfg  workload.StarConfig

	sys    *system
	pool   *sql.DB
	reader *client
	writer *client // nil unless def.writer
	oracle *oracle

	mix  []stmt                  // the statement cycle, in seeded order
	want map[string]*exec.Result // oracle answers by statement name (fixed-text read workloads)

	// Reader-goroutine state.
	lits    *rand.Rand // adhoc literals
	nReads  int
	sampled map[string]bool
	pending []sample

	// Writer-goroutine state.
	wrng    *rand.Rand
	wcycle  int
	wtraced int // writer cycles of the traced trial so far

	// Set for the traced trial only.
	tr     *tracer
	probes *probes

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// count records n attempted operations and one failure per message.
func (b *bench) count(n int, failures ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += n
	b.failed += len(failures)
	for _, f := range failures {
		if len(b.failures) < 10 {
			b.failures = append(b.failures, f)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newBench sets the system up, computes the oracle's answers, connects the
// clients and warms everything up. The returned bench must be closed even
// when an error comes with it.
func newBench(ctx context.Context, opt options) (*bench, error) {
	b := &bench{
		def:     workloadDefs[opt.workload],
		size:    sizeFor(opt.smoke),
		sampled: map[string]bool{},
		lits:    rand.New(rand.NewSource(opt.seed + 1)),
		wrng:    rand.New(rand.NewSource(opt.seed + 2)),
	}
	b.cfg = starConfig(b.size.numTrans, opt.seed)

	var err error
	if b.sys, _, err = setUp(b.cfg, b.def.deploy); err != nil {
		return b, err
	}
	b.oracle = newOracle(b.sys.cat, b.sys.db.Store())

	if b.def.all {
		b.mix = shuffled(statements, opt.seed)
	} else {
		b.mix = shuffled(servedStatements(), opt.seed)
	}

	pool, err := sql.Open("astdb", b.sys.addr)
	if err != nil {
		return b, err
	}
	b.pool = pool
	nconn := 1
	if b.def.writer {
		nconn = 2
	}
	pool.SetMaxOpenConns(nconn)
	pool.SetMaxIdleConns(nconn)
	rc, err := pool.Conn(ctx)
	if err != nil {
		return b, err
	}
	b.reader = &client{conn: rc}
	if b.def.writer {
		wc, err := pool.Conn(ctx)
		if err != nil {
			return b, err
		}
		b.writer = &client{conn: wc}
		// Prime the batches the first timed cycles will delete.
		for ; b.wcycle < dmlDeleteLag; b.wcycle++ {
			text, _ := dmlInsert(b.wcycle, b.cfg, b.wrng)
			if _, err := b.writer.exec(ctx, text); err != nil {
				return b, fmt.Errorf("priming insert: %w", err)
			}
		}
	}

	if !b.def.adhoc && !b.def.writer {
		if err := b.checkFixedTexts(ctx); err != nil {
			return b, err
		}
	}
	b.loops(ctx, time.Time{}, b.size.warmCycles, b.size.warmCycles)
	return b, nil
}

// checkFixedTexts sends every statement of the mix once, compares each reply
// with the oracle as a sorted bag, and keeps the oracle's answers so that the
// timed loop can check every later reply's row count.
func (b *bench) checkFixedTexts(ctx context.Context) error {
	texts := make([]string, len(b.mix))
	for i, st := range b.mix {
		texts[i] = st.sql
	}
	want, err := b.oracle.runAll(texts)
	if err != nil {
		return err
	}
	b.want = map[string]*exec.Result{}
	for i, st := range b.mix {
		b.want[st.name] = want[i]
		rep, err := b.reader.query(ctx, st.sql, true)
		if err != nil {
			b.count(1, fmt.Sprintf("%s: %v", st.name, err))
			continue
		}
		b.count(1, diffOracle(st.name, rep, want[i])...)
	}
	return nil
}

// diffOracle returns a failure message when a kept reply is not the oracle's
// answer, nothing when it is.
func diffOracle(name string, rep reply, want *exec.Result) []string {
	if rep.cols != len(want.Cols) {
		return []string{fmt.Sprintf("%s: %d columns, oracle has %d", name, rep.cols, len(want.Cols))}
	}
	if diff := exec.EqualResults(&exec.Result{Cols: want.Cols, Rows: rep.kept}, want); diff != "" {
		return []string{fmt.Sprintf("%s: differs from the oracle: %s", name, diff)}
	}
	return nil
}

// close releases the clients and the server; closing twice is harmless.
func (b *bench) close() error {
	if b.reader != nil {
		b.reader.conn.Close()
	}
	if b.writer != nil {
		b.writer.conn.Close()
	}
	if b.pool != nil {
		b.pool.Close()
	}
	b.reader, b.writer, b.pool = nil, nil, nil
	if sys := b.sys; sys != nil {
		b.sys = nil
		return sys.close()
	}
	return nil
}

// spareSetUp times one more set-up of the same system, beside the one being
// measured, and discards it at once. It is called after every trial, so that
// setup_s's samples are spread over the run: the host's slow spells last
// seconds, and five set-ups back to back would sit in one or miss them all.
// By then the process has also mapped the memory a system needs; the first
// set-up of a process pays the kernel for some 200 MB of fresh pages as well,
// which on this host costs anything from nothing to a second.
func (b *bench) spareSetUp() (float64, error) {
	runtime.GC()
	sys, d, err := setUp(b.cfg, b.def.deploy)
	if err != nil {
		return 0, err
	}
	err = sys.close()
	runtime.GC()
	return d.Seconds(), err
}

// done reports whether a loop that has finished `cycle` cycles should stop:
// after exactly `cycles` when that is set, else at the first cycle boundary
// past the deadline.
func done(cycle, cycles int, deadline time.Time) bool {
	if cycles > 0 {
		return cycle >= cycles
	}
	return cycle > 0 && !time.Now().Before(deadline)
}

// loops runs the reader for readCycles whole cycles (and the writer beside it,
// when the workload has one, for writeCycles), or each until the deadline when
// its count is 0, and returns the latencies of the statements that succeeded,
// by slot.
func (b *bench) loops(ctx context.Context, deadline time.Time, readCycles, writeCycles int) (reads, writes slots) {
	reads, writes = make(slots, len(b.mix)), make(slots, len(dmlKinds))
	var wg sync.WaitGroup
	if b.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; !done(c, writeCycles, deadline); c++ {
				b.writeCycle(ctx, writes)
			}
		}()
	}
	for c := 0; !done(c, readCycles, deadline); c++ {
		var cycle []sent // what a traced cycle sent, for its replay passes
		for i, st := range b.mix {
			s, d, ok := b.readOne(ctx, st)
			if ok {
				reads[i] = append(reads[i], ms(d))
				if b.tr != nil {
					cycle = append(cycle, s)
				}
			}
		}
		if b.tr != nil {
			b.replayCycle(ctx, cycle)
		}
	}
	wg.Wait()
	return reads, writes
}

// readOne sends one statement of the mix and checks what can be checked on
// the spot: errors, and the row count where the oracle's answer is known. On
// a traced trial it also opens the statement's root span and records the
// client's.
func (b *bench) readOne(ctx context.Context, st stmt) (sent, time.Duration, bool) {
	s := sent{name: st.name, text: st.sql, twin: st.sql}
	keep := false
	if b.def.adhoc {
		s.text, s.twin = adhocText(st.adhoc, b.lits)
		if b.nReads%b.size.sampleEvery == 0 && !b.sampled[st.name] {
			keep, b.sampled[st.name] = true, true
		}
	}
	b.nReads++
	began := time.Now()
	rep, err := b.reader.query(ctx, s.text, keep)
	if err != nil {
		b.count(1, fmt.Sprintf("%s: %v", st.name, err))
		return s, 0, false
	}
	if b.tr != nil {
		s.root = b.tr.open(st.name, began)
		client := b.tr.record(s.root, "client", began, rep.total)
		b.tr.record(client, "driver.scan", began.Add(rep.total-rep.scan), rep.scan)
	}
	if keep {
		b.pending = append(b.pending, sample{s.text, rep})
	}
	if want := b.want[st.name]; want != nil && rep.rows != len(want.Rows) {
		b.count(1, fmt.Sprintf("%s: %d rows, oracle has %d", st.name, rep.rows, len(want.Rows)))
		return s, 0, false
	}
	b.count(1)
	return s, rep.total, true
}

// writeRoutes is the number of ways a traced trial applies a writer cycle: a
// write cannot be replayed layer by layer as a read can, so the cycles take
// turns — over the wire, through Engine.ExecStatement, through the benchmark's
// own Maintainer (see tracedWrite).
const writeRoutes = 3

// writeCycle runs one INSERT → UPDATE → DELETE cycle and adds the latencies
// of the statements sent over the wire to lat. Untraced, every cycle goes over
// the wire; traced, the trial's first cycle does and the next two take the
// in-process routes, and so on in turn.
func (b *bench) writeCycle(ctx context.Context, lat slots) {
	batch := newDMLBatch(b.wcycle, b.cfg, b.wrng)
	b.wcycle++
	route := 0
	if b.tr != nil {
		route = b.wtraced % writeRoutes
		b.wtraced++
	}
	wire := route == 0
	for i, text := range batch.texts {
		var n int64
		var d time.Duration
		var err error
		if wire {
			began := time.Now()
			n, err = b.writer.exec(ctx, text)
			d = time.Since(began)
			if b.tr != nil {
				b.tr.record(b.tr.open(dmlKinds[i], began), "client.write", began, d)
			}
		} else {
			n, err = b.tracedWrite(ctx, route, i, batch)
		}
		switch {
		case err != nil:
			b.count(1, fmt.Sprintf("%s: %v", dmlKinds[i], err))
		case n != dmlBatchRows:
			b.count(1, fmt.Sprintf("%s: affected %d rows, want %d", dmlKinds[i], n, dmlBatchRows))
		default:
			b.count(1)
			if wire {
				lat[i] = append(lat[i], ms(d))
			}
		}
	}
}

// trialStats is one trial's raw measurements.
type trialStats struct {
	reads, writes slots // successful statements only
	wall, cpu     time.Duration
	allocBytes    uint64
	gcCycles      uint32
	gcPause       time.Duration
	heapInuse     uint64
	canaryMS      [2]float64 // before and after
	memCanaryMS   [2]float64
	counters      map[string]int64
}

func (t trialStats) ops() float64 { return float64(t.reads.count() + t.writes.count()) }

// trial measures one trial of length d (or of size.cycles cycles).
func (b *bench) trial(ctx context.Context, d time.Duration) trialStats {
	var ts trialStats
	ts.canaryMS[0], ts.memCanaryMS[0] = ms(canary()), ms(memCanary())
	var m0, m1 runtime.MemStats
	before := b.sys.db.Snapshot()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	began := time.Now()
	ts.reads, ts.writes = b.loops(ctx, began.Add(d), b.size.cycles, b.size.writeCycles)
	ts.wall = time.Since(began)
	ts.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ts.counters = counterDeltas(before, b.sys.db.Snapshot())
	ts.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ts.gcCycles = m1.NumGC - m0.NumGC
	ts.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ts.heapInuse = m1.HeapInuse
	ts.canaryMS[1], ts.memCanaryMS[1] = ms(canary()), ms(memCanary())

	if b.def.writer {
		// The writer is paused between trials: every summary table the
		// catalog calls fresh must now equal its recompute.
		bad, err := b.sys.checkSummaryTables(b.oracle)
		if err != nil {
			bad = append(bad, err.Error())
		}
		b.count(len(summaryTables), bad...)
	}
	return ts
}

// stmtLatency is one statement's latency over all the trials of a run, in
// ms: the median as experienced, and the fastest execution.
type stmtLatency struct {
	P50   float64 `json:"p50"`
	Quiet float64 `json:"quiet"`
}

// statementLatencies is the table that says which statements make the tail.
func (b *bench) statementLatencies(trials []trialStats) map[string]stmtLatency {
	out := map[string]stmtLatency{}
	for i, st := range b.mix {
		var all []float64
		for _, ts := range trials {
			all = append(all, ts.reads[i]...)
		}
		out[st.name] = stmtLatency{P50: median(all), Quiet: fastest(all)}
	}
	return out
}

// counterDeltas is what the engine's observer counted between two snapshots.
func counterDeltas(before, after obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range after.Counters {
		out[name] = v - before.Counters[name]
	}
	return out
}

// finalChecks verifies what could not be verified while the clock ran: the
// adhoc-rewrite samples, and on maintain-mixed every statement of the mix
// against the final state of the data (the writer has stopped).
func (b *bench) finalChecks(ctx context.Context) error {
	texts := make([]string, len(b.pending))
	for i, s := range b.pending {
		texts[i] = s.text
	}
	want, err := b.oracle.runAll(texts)
	if err != nil {
		return err
	}
	for i, s := range b.pending {
		b.count(0, diffOracle(s.text, s.rep, want[i])...)
	}
	if b.def.writer {
		return b.checkFixedTexts(ctx)
	}
	return nil
}
