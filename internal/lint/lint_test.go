package lint_test

// Two halves: every analyzer fires on a seeded violation (the rules are not
// vacuous), and the whole suite is clean over this repository (the gate
// passes). CI runs the same suite through cmd/astlint.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lint"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// rcuFixture parses a seeded source file that imports the real internal/rcu
// (type-checked from its source next door).
func rcuFixture(t *testing.T, importPath, filename, src string) *lint.Package {
	t.Helper()
	rcuSrc, err := os.ReadFile(filepath.Join("..", "rcu", "rcu.go"))
	if err != nil {
		t.Fatal(err)
	}
	rcu, err := lint.ParseSource("repro/internal/rcu", "rcu/rcu.go", string(rcuSrc))
	if err != nil || len(rcu.TypeErrs) != 0 {
		t.Fatalf("internal/rcu does not type-check: %v %v", err, rcu.TypeErrs)
	}
	p, err := lint.ParseSource(importPath, filename, src, rcu)
	if err != nil {
		t.Fatalf("parse seeded source: %v", err)
	}
	return p
}

// wantTypeError asserts the fixture fails to type-check, and only where the
// seeded violation is: exactly one error, mentioning substr.
func wantTypeError(t *testing.T, p *lint.Package, substr string) {
	t.Helper()
	if len(p.TypeErrs) != 1 || !strings.Contains(p.TypeErrs[0].Error(), substr) {
		t.Fatalf("want one type error mentioning %q, got %v", substr, p.TypeErrs)
	}
}

// findings parses one seeded source file and runs one analyzer over it.
func findings(t *testing.T, a *lint.Analyzer, importPath, filename, src string) []lint.Finding {
	t.Helper()
	p, err := lint.ParseSource(importPath, filename, src)
	if err != nil {
		t.Fatalf("parse seeded source: %v", err)
	}
	return lint.Run([]*lint.Package{p}, []*lint.Analyzer{a})
}

// wantFinding asserts exactly one finding carrying the analyzer's name.
func wantFinding(t *testing.T, fs []lint.Finding, analyzer, substr string) {
	t.Helper()
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %d: %v", len(fs), fs)
	}
	if fs[0].Analyzer != analyzer {
		t.Fatalf("finding from %q, want %q", fs[0].Analyzer, analyzer)
	}
	if !strings.Contains(fs[0].Message, substr) {
		t.Fatalf("finding %q does not mention %q", fs[0].Message, substr)
	}
}

func TestDeterminismFlagsTimeNow(t *testing.T) {
	src := `package core
import "time"
func stamp() int64 { return time.Now().UnixNano() }
`
	fs := findings(t, lint.Determinism, "repro/internal/core", "core/seed.go", src)
	wantFinding(t, fs, "determinism", "time.Now")
}

func TestDeterminismFlagsMathRand(t *testing.T) {
	src := `package qgm
import "math/rand"
func jitter() int { return rand.Int() }
`
	fs := findings(t, lint.Determinism, "repro/internal/qgm", "qgm/seed.go", src)
	wantFinding(t, fs, "determinism", "math/rand")
}

func TestDeterminismIgnoresOtherPackages(t *testing.T) {
	src := `package bench
import "time"
func stamp() int64 { return time.Now().UnixNano() }
`
	if fs := findings(t, lint.Determinism, "repro/internal/bench", "bench/ok.go", src); len(fs) != 0 {
		t.Fatalf("non-deterministic package flagged: %v", fs)
	}
}

func TestDeterminismCoversTestFiles(t *testing.T) {
	// Property tests drive the planner and must replay identically, so test
	// files are covered too: wall-clock is always a finding.
	tsrc := `package core
import "time"
func stamp() int64 { return time.Now().UnixNano() }
`
	fs := findings(t, lint.Determinism, "repro/internal/core", "core/x_test.go", tsrc)
	wantFinding(t, fs, "determinism", "time.Now")
}

func TestDeterminismSeededRandCarveOut(t *testing.T) {
	// The one sanctioned randomness in tests: a *rand.Rand built from a
	// compile-time constant seed is deterministic by construction.
	seeded := `package core
import "math/rand"
func jitter() int { return rand.New(rand.NewSource(42)).Intn(10) }
`
	if fs := findings(t, lint.Determinism, "repro/internal/core", "core/seeded_test.go", seeded); len(fs) != 0 {
		t.Fatalf("constant-seeded rand flagged: %v", fs)
	}

	// Global rand functions and non-constant seeds stay findings even in
	// tests — they read the shared source or an unpredictable seed.
	bad := `package core
import "math/rand"
func jitter(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	_ = r
	return rand.Intn(10)
}
`
	fs := findings(t, lint.Determinism, "repro/internal/core", "core/bad_test.go", bad)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings (variable seed, global Intn), got %d: %v", len(fs), fs)
	}
	var sawSeed, sawGlobal bool
	for _, f := range fs {
		if strings.Contains(f.Message, "NewSource seed") {
			sawSeed = true
		}
		if strings.Contains(f.Message, "global rand.Intn") {
			sawGlobal = true
		}
	}
	if !sawSeed || !sawGlobal {
		t.Fatalf("missing expected messages in %v", fs)
	}
}

func TestCtxFirstFlagsLateContext(t *testing.T) {
	src := `package exec
import "context"
type E struct{}
func (e *E) Run(name string, ctx context.Context) error { return ctx.Err() }
`
	fs := findings(t, lint.CtxFirst, "repro/internal/exec", "exec/seed.go", src)
	wantFinding(t, fs, "ctx-first", "Run")
}

func TestCtxFirstAcceptsContextFirst(t *testing.T) {
	src := `package exec
import "context"
type E struct{}
func (e *E) Run(ctx context.Context, name string) error { return ctx.Err() }
func helper(name string, ctx context.Context) error { return ctx.Err() } // unexported: allowed
`
	if fs := findings(t, lint.CtxFirst, "repro/internal/exec", "exec/ok.go", src); len(fs) != 0 {
		t.Fatalf("compliant source flagged: %v", fs)
	}
}

func TestObsNilGuardFlagsUnguardedMethod(t *testing.T) {
	src := `package obs
type Observer struct{ n int }
func (o *Observer) Bump() { o.n++ }
`
	fs := findings(t, lint.ObsNilGuard, "repro/internal/obs", "obs/seed.go", src)
	wantFinding(t, fs, "obs-nil-guard", "Bump")
}

func TestObsNilGuardAcceptsGuardIdioms(t *testing.T) {
	src := `package obs
type Observer struct{ n int }
func (o *Observer) Bump() {
	if o == nil {
		return
	}
	o.n++
}
func (o *Observer) Enabled() bool { return o != nil }
func (o *Observer) bump() { o.n++ } // unexported: callers already guarded
`
	if fs := findings(t, lint.ObsNilGuard, "repro/internal/obs", "obs/ok.go", src); len(fs) != 0 {
		t.Fatalf("guarded source flagged: %v", fs)
	}
}

// The seeded violations of the two retired lock rules (mutex-discipline,
// unlock-paths) keep their names and sources. What they got wrong cannot be
// written against rcu.Guarded, so what boundaries flags in each is the one
// thing that made it possible: a mutex of the fixture's own.

func TestMutexDisciplineFlagsUnlockedFieldAccess(t *testing.T) {
	src := `package storage
import "sync"
type TableData struct {
	mu     sync.Mutex
	chunks []int
}
func (t *TableData) Size() int { return len(t.chunks) }
`
	fs := findings(t, lint.Boundaries, "repro/internal/storage", "storage/seed.go", src)
	wantFinding(t, fs, "boundaries", "sync.Mutex outside repro/internal/rcu")
}

// guardedIsClean asserts a fixture written against rcu.Guarded type-checks
// and passes the whole suite.
func guardedIsClean(t *testing.T, importPath, filename, src string) {
	t.Helper()
	p := rcuFixture(t, importPath, filename, src)
	if len(p.TypeErrs) != 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	if fs := lint.Run([]*lint.Package{p}, lint.All()); len(fs) != 0 {
		t.Fatalf("guarded source flagged: %v", fs)
	}
}

func TestMutexDisciplineAcceptsLockedAccess(t *testing.T) {
	guardedIsClean(t, "repro/internal/storage", "storage/ok.go", `package storage
import "repro/internal/rcu"
type TableData struct {
	builder rcu.Guarded[[]int]
}
func (t *TableData) Size() (n int) {
	t.builder.Do(func(chunks *[]int) { n = len(*chunks) })
	return n
}
`)
}

// The next four tests carry the seeded violations of the two retired rules
// (the publish half of mutex-discipline, and publish-freeze) over to
// internal/rcu, under their old names: each must now fail to compile or be
// caught by rcu-publish.

func TestMutexDisciplineFlagsUnlockedPublish(t *testing.T) {
	// A Store that bypasses the writer mutex: rcu.Cell has no Store, so the
	// bug the rule existed to catch does not compile (Load is still free).
	src := `package storage
import "repro/internal/rcu"
type Store struct {
	tables rcu.Cell[map[string]int]
}
func (s *Store) swap(m map[string]int) { s.tables.Store(m) }
func (s *Store) read() map[string]int  { return s.tables.Load() }
`
	p := rcuFixture(t, "repro/internal/storage", "storage/seed.go", src)
	wantTypeError(t, p, "s.tables.Store undefined")
}

func TestMutexDisciplineCoversStripedShards(t *testing.T) {
	// A planShard picked out of an array and read without its lock: get is
	// the bug, and the shard's own mutex is what lets it be written.
	src := `package core
import "sync"
type planShard struct {
	mu    sync.Mutex
	byKey map[string]int
}
type cache struct{ shards []planShard }
func (c *cache) get(k string) int {
	s := &c.shards[0]
	return s.byKey[k]
}
func (c *cache) put(k string, v int) {
	s := &c.shards[0]
	s.mu.Lock()
	s.byKey[k] = v
	s.mu.Unlock()
}
`
	fs := findings(t, lint.Boundaries, "repro/internal/core", "core/seed.go", src)
	wantFinding(t, fs, "boundaries", "sync.Mutex outside repro/internal/rcu")
}

func TestPublishFreezeFlagsPostPublishWrite(t *testing.T) {
	// This one still compiles: the callback hands readers a value the
	// function keeps a name for. rcu-publish flags the later use.
	src := `package storage
import "repro/internal/rcu"
type view struct{ rows []int }
type Box struct{ v rcu.Cell[*view] }
func (b *Box) bad(x int) {
	nv := &view{rows: make([]int, 1)}
	b.v.Update(func(*view) *view { return nv })
	nv.rows[0] = x
}
`
	p := rcuFixture(t, "repro/internal/storage", "storage/seed.go", src)
	if len(p.TypeErrs) != 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	fs := lint.Run([]*lint.Package{p}, []*lint.Analyzer{lint.RCUPublish})
	wantFinding(t, fs, "rcu-publish", "nv was published")
}

func TestPublishFreezeFlagsAppendAliasingPublishedSlice(t *testing.T) {
	// The Insert anti-pattern: publishing rows and then appending to rows
	// may write into the published backing array in place.
	src := `package storage
import "repro/internal/rcu"
type table struct{ rows []string }
type Box struct{ tables rcu.Cell[table] }
func (b *Box) bad(rows []string, r string) {
	b.tables.Update(func(table) table { return table{rows: rows} })
	rows = append(rows, r)
}
`
	p := rcuFixture(t, "repro/internal/storage", "storage/seed.go", src)
	if len(p.TypeErrs) != 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	fs := lint.Run([]*lint.Package{p}, []*lint.Analyzer{lint.RCUPublish})
	wantFinding(t, fs, "rcu-publish", "rows was published")
}

// The seal of a storage chunk is a type and a run-time check, not a rule. The
// fixtures of the retired chunk-freeze rule keep their names and are
// type-checked against the real internal/storage and internal/sqltypes: a
// write through a field must fail to compile.

// sealFixture parses a seeded source file of package exec that imports the
// real internal/storage and internal/sqltypes.
func sealFixture(t *testing.T, src string) *lint.Package {
	t.Helper()
	pkgs, err := module()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	var deps []*lint.Package
	for _, p := range pkgs {
		if (p.Path == "repro/internal/storage" || p.Path == "repro/internal/sqltypes") && !strings.HasSuffix(p.Name, "_test") {
			deps = append(deps, p)
		}
	}
	if len(deps) != 2 {
		t.Fatalf("found %d of internal/storage and internal/sqltypes", len(deps))
	}
	p, err := lint.ParseSource("repro/internal/exec", "exec/seed.go", src, deps...)
	if err != nil {
		t.Fatalf("parse seeded source: %v", err)
	}
	return p
}

func TestChunkFreezeFlagsWriteAfterFreeze(t *testing.T) {
	// Writing through a chunk a snapshot handed out: its fields are not
	// there to write.
	p := sealFixture(t, `package exec
import "repro/internal/storage"
func bad(s *storage.Store) {
	chunks, _, _ := s.ScanChunks("t")
	chunks[0].N = 0
}
`)
	wantTypeError(t, p, "chunks[0].N undefined")
}

func TestChunkFreezeFlagsWriteToFrozenParamOutsideStorage(t *testing.T) {
	// A consumer handed a chunk or one of its vectors cannot replace a column
	// or write into a payload.
	p := sealFixture(t, `package exec
import (
	"repro/internal/sqltypes"
	"repro/internal/storage"
)
func bad(c *storage.Chunk, v sqltypes.Vec) { c.Cols[0] = v }
`)
	wantTypeError(t, p, "c.Cols undefined")
	p = sealFixture(t, `package exec
import "repro/internal/sqltypes"
func bad(v *sqltypes.Vec) { v.Ints[0] = 1 }
`)
	wantTypeError(t, p, "cannot index v.Ints")
}

func TestChunkFreezeFlagsKernelRefillingStorageColumn(t *testing.T) {
	// The mistake per-worker scratch makes easy: a kernel refills the chunk's
	// own column instead of its scratch slot. Spelled through the field it
	// does not compile; through the accessor it panics with the seal's message.
	p := sealFixture(t, `package exec
import (
	"repro/internal/sqltypes"
	"repro/internal/storage"
)
func yearKernel(c *storage.Chunk, n int) []int64 { return c.Cols[0].RefillInts(sqltypes.KindInt, n) }
`)
	wantTypeError(t, p, "c.Cols undefined")

	store := storage.NewStore()
	td := store.Create(&catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "d", Type: sqltypes.KindInt}}})
	td.MustInsert(sqltypes.NewInt(19950104))
	chunks, _ := td.SnapshotChunks()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "refill on a sealed vector") {
			t.Fatalf("refilling a storage column: panic %v, want the seal's", r)
		}
	}()
	chunks[0].Col(0).RefillInts(sqltypes.KindInt, 1)
}

func TestChunkFreezeAcceptsFreshBuildAndReadOnlyUse(t *testing.T) {
	// Building chunks through a Writer and reading them through the accessors
	// type-checks and passes the whole suite.
	p := sealFixture(t, `package exec
import (
	"repro/internal/sqltypes"
	"repro/internal/storage"
)
func build(rows [][]sqltypes.Value) []*storage.Chunk {
	w := storage.Writer{Cols: 2, Left: len(rows)}
	for _, r := range rows {
		w.Add(r)
	}
	return w.Seal()
}
func count(c *storage.Chunk) int { return c.Len()*c.Width() + len(c.Col(0).Ints()) }
`)
	if len(p.TypeErrs) != 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	if fs := lint.Run([]*lint.Package{p}, lint.All()); len(fs) != 0 {
		t.Fatalf("fresh chunk build or read flagged: %v", fs)
	}
}

func TestUnlockPathsFlagsMissedUnlockOnEarlyReturn(t *testing.T) {
	src := `package astdb
import "sync"
type T struct {
	mu sync.Mutex
	n  int
}
func (t *T) bad(x int) int {
	t.mu.Lock()
	if x > 0 {
		return x
	}
	t.mu.Unlock()
	return t.n
}
`
	fs := findings(t, lint.Boundaries, "repro/astdb", "astdb/seed.go", src)
	wantFinding(t, fs, "boundaries", "sync.Mutex outside repro/internal/rcu")
}

func TestUnlockPathsAcceptsDeferAndBalancedPaths(t *testing.T) {
	// The three shapes the rule used to accept — deferred unlock with a panic
	// on one path, unlock in a deferred closure, manual unlock before return —
	// are one shape now: Do unlocks by defer on every exit.
	guardedIsClean(t, "repro/astdb", "astdb/ok.go", `package astdb
import "repro/internal/rcu"
type T struct {
	n rcu.Guarded[int]
}
func (t *T) okPanic(x int) (n int) {
	t.n.Do(func(v *int) {
		if x > 0 {
			panic("boom")
		}
		n = *v
	})
	return n
}
func (t *T) okEarlyReturn(x int) (n int) {
	t.n.Do(func(v *int) {
		if x > 0 {
			return
		}
		n = *v
	})
	return n
}
`)
}

func TestMutexDisciplineFlagsRequiresHeldCallSite(t *testing.T) {
	// A "callers must hold mu" helper needs the lock and the pointer as
	// separate things; the cell keeps both to itself, so neither the helper
	// nor an unlocked call site of it can be written.
	src := `package storage
import "repro/internal/rcu"
type Store struct {
	tables rcu.Cell[*int]
}
func (s *Store) setTable(m *int) { s.tables.cur.Store(&m) }
func bad(s *Store, m *int)       { s.setTable(m) }
`
	p := rcuFixture(t, "repro/internal/storage", "storage/seed.go", src)
	wantTypeError(t, p, "s.tables.cur undefined")
}

func TestRCUPublishFlagsHandRolledPointer(t *testing.T) {
	// The idiom spelled out by hand — an atomic.Pointer or an atomic.Value of
	// one's own — is what internal/rcu replaces; boundaries flags either type
	// anywhere else, whatever the spelling.
	ptr := `package storage
import "sync/atomic"
type Store struct {
	tables atomic.Pointer[map[string]int]
	epoch  atomic.Int64
}
`
	for _, c := range []struct {
		path, file, src string
		want            []string
	}{
		{"repro/internal/storage", "storage/seed.go", ptr, []string{"sync/atomic.Pointer outside repro/internal/rcu"}},
		{"repro/internal/obs", "obs/seed.go", `package obs
import "sync/atomic"
var registry atomic.Value
`, []string{"sync/atomic.Value outside repro/internal/rcu"}},
		{"repro/internal/obs", "obs/dot.go", `package obs
import . "sync/atomic"
type cache struct{ m Pointer[map[string]int] }
var registry Value
`, []string{"sync/atomic.Pointer outside", "sync/atomic.Value outside"}},
		{"repro/internal/rcu", "rcu/rcu.go", ptr, nil},
		{"repro/internal/storage", "storage/x_test.go", ptr, nil},
	} {
		fs := findings(t, lint.Boundaries, c.path, c.file, c.src)
		if len(fs) != len(c.want) {
			t.Fatalf("%s: want %d findings, got %v", c.file, len(c.want), fs)
		}
		for i, f := range fs {
			if f.Analyzer != "boundaries" || !strings.Contains(f.Message, c.want[i]) {
				t.Errorf("%s: finding %v, want boundaries mentioning %q", c.file, f, c.want[i])
			}
		}
	}
}

func TestRCUPublishAcceptsHandOver(t *testing.T) {
	// What production code does: hand a value over and let go of it, return
	// the callback's own argument, return a call result, copy a scalar.
	src := `package storage
import "repro/internal/rcu"
type view struct {
	rows []int
	n    int
}
type Box struct {
	v rcu.Cell[view]
	n int
}
func grow(rows []int) []int { return append(rows[:len(rows):len(rows)], 0) }
func (b *Box) ok(rows []int) int {
	next := view{rows: rows}
	b.v.Update(func(prev view) view {
		next.n = prev.n + 1
		return next
	})
	b.v.Update(func(prev view) view {
		prev.n = b.n
		return prev
	})
	b.v.Update(func(prev view) view { return view{rows: grow(prev.rows), n: b.n} })
	return b.n
}
`
	p := rcuFixture(t, "repro/internal/storage", "storage/ok.go", src)
	if len(p.TypeErrs) != 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	if fs := lint.Run([]*lint.Package{p}, []*lint.Analyzer{lint.RCUPublish}); len(fs) != 0 {
		t.Fatalf("hand-over flagged: %v", fs)
	}
}

func TestBoundariesFlagsEveryWayToDeclareAMutex(t *testing.T) {
	// Identity, not spelling: a read-write mutex, an embedded one, one behind
	// an alias and one behind a renamed import are all the same two types.
	src := `package obs
import (
	"sync"
	s2 "sync"
)
type lock = sync.Mutex
type a struct{ mu sync.RWMutex }
type b struct{ sync.Mutex }
var c s2.Mutex
var d lock
`
	fs := findings(t, lint.Boundaries, "repro/internal/obs", "obs/seed.go", src)
	if len(fs) != 4 {
		t.Fatalf("want 4 findings (the alias's use is the alias, not the mutex), got %d: %v", len(fs), fs)
	}
	for _, ok := range [][2]string{{"repro/internal/rcu", "rcu/rcu.go"}, {"repro/internal/obs", "obs/x_test.go"}} {
		if fs := findings(t, lint.Boundaries, ok[0], ok[1], src); len(fs) != 0 {
			t.Fatalf("%s flagged: %v", ok[1], fs)
		}
	}
}

func TestBoundariesFlagsNonPinningConstRead(t *testing.T) {
	// The three mutations PR 19 used to show TestPinCompleteness is needed —
	// a planning read of a constant that does not pin — however they are
	// spelled: through Peek from a planning package, or at the field itself
	// from any file of internal/qgm but the one Const lives in.
	qgmSrc := `package qgm
type Param struct{ pinned bool }
type Const struct {
	val   int
	Param *Param
}
func NewConst(v int) *Const { return &Const{val: v} }
func (c *Const) Value() int {
	if c.Param != nil {
		c.Param.pinned = true
	}
	return c.val
}
func (c *Const) Peek() int { return c.val }
`
	qgm, err := lint.ParseSource("repro/internal/qgm", "qgm/expr.go", qgmSrc)
	if err != nil || len(qgm.TypeErrs) != 0 {
		t.Fatalf("stand-in qgm: %v %v", err, qgm.TypeErrs)
	}
	if fs := lint.Run([]*lint.Package{qgm}, []*lint.Analyzer{lint.Boundaries}); len(fs) != 0 {
		t.Fatalf("expr.go itself flagged: %v", fs)
	}

	planner := `package core
import "repro/internal/qgm"
func subsumes(a, b *qgm.Const) bool { return a.Value() <= b.Peek() }
`
	for _, path := range []string{"repro/internal/core", "repro/internal/catalog"} {
		p, err := lint.ParseSource(path, "core/seed.go", planner, qgm)
		if err != nil || len(p.TypeErrs) != 0 {
			t.Fatalf("planner fixture: %v %v", err, p.TypeErrs)
		}
		fs := lint.Run([]*lint.Package{p}, []*lint.Analyzer{lint.Boundaries})
		wantFinding(t, fs, "boundaries", "Const.Peek in "+path)
	}
	executor, err := lint.ParseSource("repro/internal/exec", "exec/ok.go", strings.Replace(planner, "package core", "package exec", 1), qgm)
	if err != nil || len(executor.TypeErrs) != 0 {
		t.Fatalf("executor fixture: %v %v", err, executor.TypeErrs)
	}
	if fs := lint.Run([]*lint.Package{executor}, []*lint.Analyzer{lint.Boundaries}); len(fs) != 0 {
		t.Fatalf("the executor may peek: %v", fs)
	}

	equiv := qgmSrc + `
func exprEqual(x, y *Const) bool { return x.Value() == y.Peek() }
func inList(c *Const) int        { return c.val }
`
	fs := findings(t, lint.Boundaries, "repro/internal/qgm", "qgm/equiv.go", equiv)
	if len(fs) < 2 {
		t.Fatalf("want Peek and the field flagged outside expr.go, got %v", fs)
	}
	var sawPeek, sawField bool
	for _, f := range fs {
		sawPeek = sawPeek || strings.Contains(f.Message, "Const.Peek in repro/internal/qgm")
		sawField = sawField || strings.Contains(f.Message, "Const.val outside repro/internal/qgm/expr.go")
	}
	if !sawPeek || !sawField {
		t.Fatalf("missing a finding in %v", fs)
	}
}

// ---- suppressions ----

func TestSuppressionsSilenceAndAreCounted(t *testing.T) {
	src := `package core
import "time"
//lint:ignore determinism fixture exercises the suppression path
func stamp() int64 { return time.Now().UnixNano() }
`
	p, err := lint.ParseSource("repro/internal/core", "core/seed.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs, sup := lint.RunDetailed([]*lint.Package{p}, []*lint.Analyzer{lint.Determinism})
	if len(fs) != 0 {
		t.Fatalf("suppressed finding still reported: %v", fs)
	}
	if len(sup) != 1 {
		t.Fatalf("want 1 suppression, got %d: %v", len(sup), sup)
	}
	if sup[0].Finding.Analyzer != "determinism" {
		t.Fatalf("suppressed wrong analyzer: %v", sup[0])
	}
	if sup[0].Reason != "fixture exercises the suppression path" {
		t.Fatalf("reason not preserved: %q", sup[0].Reason)
	}
}

func TestSuppressionsRejectMissingReason(t *testing.T) {
	src := `package core
import "time"
//lint:ignore determinism
func stamp() int64 { return time.Now().UnixNano() }
`
	p, err := lint.ParseSource("repro/internal/core", "core/seed.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs, sup := lint.RunDetailed([]*lint.Package{p}, []*lint.Analyzer{lint.Determinism})
	if len(sup) != 0 {
		t.Fatalf("malformed ignore suppressed something: %v", sup)
	}
	var sawBadIgnore, sawOriginal bool
	for _, f := range fs {
		if f.Analyzer == "lint-ignore" {
			sawBadIgnore = true
		}
		if f.Analyzer == "determinism" {
			sawOriginal = true
		}
	}
	if !sawBadIgnore || !sawOriginal {
		t.Fatalf("want lint-ignore + unsuppressed determinism findings, got %v", fs)
	}
}

// module loads and type-checks the repository once for the tests that run
// analyzers over it (about three seconds, most of it the standard library).
var module = sync.OnceValues(func() ([]*lint.Package, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return lint.LoadModule(root)
})

// TestRepositoryIsClean is the dogfood gate: the full analyzer suite over the
// whole module must report nothing and suppress nothing. cmd/astlint enforces
// the same in CI; this keeps `go test ./...` sufficient locally.
func TestRepositoryIsClean(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	fs, suppressed := lint.RunDetailed(pkgs, lint.All())
	for _, f := range fs {
		t.Errorf("%s", f)
	}
	for _, s := range suppressed {
		t.Errorf("%s: suppressed by //lint:ignore (%s); the repository carries none", s.Finding, s.Reason)
	}
}

// TestEveryAnalyzerIsDocumented ties the suite to its catalogue: DESIGN.md
// §11 names every analyzer of All(), and no rule that has been deleted.
func TestEveryAnalyzerIsDocumented(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 11. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 11")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, a := range lint.All() {
		if !strings.Contains(section, "`"+a.Name+"`") {
			t.Errorf("DESIGN.md §11 does not name the analyzer `%s`", a.Name)
		}
	}
	for _, gone := range []string{"unlock-paths", "mutex-discipline", "deprecated-api", "storage-rows",
		"publish-freeze", "storage-lock", "chunk-freeze"} {
		if strings.Contains(section, gone) {
			t.Errorf("DESIGN.md §11 still names the deleted rule `%s`", gone)
		}
	}
}
