package lint_test

// Two halves: every analyzer fires on a seeded violation (the rules are not
// vacuous), and the whole suite is clean over this repository (the gate
// passes). CI runs the same suite through cmd/astlint.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
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

func TestDeprecatedAPIFlagsResilientImport(t *testing.T) {
	src := `package somepkg
import _ "repro/internal/resilient"
`
	fs := findings(t, lint.DeprecatedAPI, "repro/internal/somepkg", "somepkg/seed.go", src)
	wantFinding(t, fs, "deprecated-api", "internal/resilient")
}

func TestDeprecatedAPIFlagsExecLimits(t *testing.T) {
	src := `package somepkg
import "repro/internal/exec"
var lim exec.Limits
`
	fs := findings(t, lint.DeprecatedAPI, "repro/internal/somepkg", "somepkg/seed.go", src)
	wantFinding(t, fs, "deprecated-api", "exec.Limits")
}

func TestDeprecatedAPIFlagsLimitsRedeclaration(t *testing.T) {
	src := `package exec
type Config struct{}
type Limits = Config
`
	fs := findings(t, lint.DeprecatedAPI, "repro/internal/exec", "exec/seed.go", src)
	wantFinding(t, fs, "deprecated-api", "reintroduces")

	vsrc := `package exec
var Limits int
`
	fs = findings(t, lint.DeprecatedAPI, "repro/internal/exec", "exec/seed2.go", vsrc)
	wantFinding(t, fs, "deprecated-api", "reintroduces")

	ok := `package exec
type Config struct{}
func limits() int { return 0 } // lower-case: fine
`
	if fs := findings(t, lint.DeprecatedAPI, "repro/internal/exec", "exec/ok.go", ok); len(fs) != 0 {
		t.Fatalf("compliant exec source flagged: %v", fs)
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

func TestMutexDisciplineFlagsUnlockedFieldAccess(t *testing.T) {
	src := `package storage
import "sync"
type TableData struct {
	mu     sync.Mutex
	chunks []int
}
func (t *TableData) Size() int { return len(t.chunks) }
`
	fs := findings(t, lint.MutexDiscipline, "repro/internal/storage", "storage/seed.go", src)
	wantFinding(t, fs, "mutex-discipline", "Size")
}

func TestMutexDisciplineAcceptsLockedAccess(t *testing.T) {
	src := `package storage
import "sync"
type TableData struct {
	mu     sync.Mutex
	chunks []int
}
func (t *TableData) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chunks)
}
`
	if fs := findings(t, lint.MutexDiscipline, "repro/internal/storage", "storage/ok.go", src); len(fs) != 0 {
		t.Fatalf("locked source flagged: %v", fs)
	}
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
	// Type-based matching reaches beyond receivers: a planShard picked out
	// of an array must lock its own mutex before touching guarded fields.
	// (The stand-in type uses the production name so the typed lockSpecs
	// entry for repro/internal/core.planShard matches.)
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
	fs := findings(t, lint.MutexDiscipline, "repro/internal/core", "core/seed.go", src)
	wantFinding(t, fs, "mutex-discipline", "get")
	for _, f := range fs {
		if strings.Contains(f.Message, "put ") {
			t.Fatalf("locked shard access flagged: %v", f)
		}
	}
}

func TestStorageRowsFlagsTypedIdent(t *testing.T) {
	src := `package maintain
import "repro/internal/storage"
func rowCount(td *storage.TableData) int { return len(td.Rows) }
`
	fs := findings(t, lint.StorageRows, "repro/internal/maintain", "maintain/seed.go", src)
	wantFinding(t, fs, "storage-rows", "TableData.Rows")
}

func TestStorageRowsFlagsStoreChain(t *testing.T) {
	src := `package maintain
import "repro/internal/storage"
func rowCount(s *storage.Store) int { return len(s.Table("t").Rows) }
`
	fs := findings(t, lint.StorageRows, "repro/internal/maintain", "maintain/seed.go", src)
	wantFinding(t, fs, "storage-rows", "TableData.Rows")
}

func TestStorageRowsIgnoresStorageTestsAndOtherRows(t *testing.T) {
	// The storage package itself, test files, and unrelated Rows fields
	// (e.g. exec.Result.Rows) all stay clean.
	inStorage := `package storage
type TableData struct{ Rows int }
func (td *TableData) n() int { return td.Rows }
`
	if fs := findings(t, lint.StorageRows, "repro/internal/storage", "storage/ok.go", inStorage); len(fs) != 0 {
		t.Fatalf("storage package flagged: %v", fs)
	}
	inTest := `package maintain
import "repro/internal/storage"
func rowCount(td *storage.TableData) int { return len(td.Rows) }
`
	if fs := findings(t, lint.StorageRows, "repro/internal/maintain", "maintain/x_test.go", inTest); len(fs) != 0 {
		t.Fatalf("test file flagged: %v", fs)
	}
	otherRows := `package astdb
import "repro/internal/storage"
func use(s *storage.Store, r struct{ Rows [][]int }) int { _ = s; return len(r.Rows) }
`
	if fs := findings(t, lint.StorageRows, "repro/astdb", "astdb/ok.go", otherRows); len(fs) != 0 {
		t.Fatalf("unrelated Rows field flagged: %v", fs)
	}
}

// ---- flow-sensitive analyzers: seeded violations per rule ----

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

func TestChunkFreezeFlagsWriteAfterFreeze(t *testing.T) {
	// Inside internal/storage: a chunk is mutable from allocation until its
	// freeze call; writing through the frozen view is the seeded bug. The
	// stand-in Chunk reuses the production method name so the funcKey-driven
	// frozenReturning table matches.
	src := `package storage
type Chunk struct{ vals []int }
func (c *Chunk) frozen() *Chunk { return c }
func bad() int {
	c := &Chunk{vals: make([]int, 4)}
	c.vals[0] = 1
	f := c.frozen()
	f.vals[1] = 2
	return f.vals[1]
}
`
	fs := findings(t, lint.ChunkFreeze, "repro/internal/storage", "storage/seed.go", src)
	wantFinding(t, fs, "chunk-freeze", "after freeze")
}

func TestChunkFreezeFlagsWriteToFrozenParamOutsideStorage(t *testing.T) {
	// Outside internal/storage, chunk-typed parameters are frozen views —
	// consumers only ever receive snapshots.
	src := `package exec
type Chunk struct{ vals []int }
func bad(c *Chunk) { c.vals[0] = 9 }
`
	fs := findings(t, lint.ChunkFreeze, "repro/internal/exec", "exec/seed.go", src)
	wantFinding(t, fs, "chunk-freeze", "after freeze")
}

func TestChunkFreezeFlagsKernelRefillingStorageColumn(t *testing.T) {
	// The mistake per-worker scratch makes easy: a kernel refills the chunk's
	// own column instead of its scratch slot. The stand-ins claim the sqltypes
	// path so the calleeFacts row for the real Vec.RefillInts matches.
	src := `package sqltypes
type Vec struct{ ints []int64 }
func (v *Vec) RefillInts(kind, n int) []int64 { v.ints = v.ints[:n]; return v.ints }
type Chunk struct {
	N    int
	Cols []Vec
}
func yearKernel(c *Chunk, scratch *Vec) []int64 {
	return c.Cols[0].RefillInts(1, c.N)
}
func yearKernelOK(c *Chunk, scratch *Vec) []int64 {
	return scratch.RefillInts(1, c.N)
}
`
	fs := findings(t, lint.ChunkFreeze, "repro/internal/sqltypes", "sqltypes/seed.go", src)
	wantFinding(t, fs, "chunk-freeze", "RefillInts")
}

func TestChunkFreezeAcceptsFreshBuildAndReadOnlyUse(t *testing.T) {
	// Regression for two bring-up false positives: a locally allocated chunk
	// stays writable outside storage (the columnarize shape), and builtins
	// like len are not "callees that may mutate".
	src := `package exec
type Vec struct{ n int }
func (v *Vec) AppendValue(x int) { v.n++ }
type Chunk struct{ Cols []Vec }
func build(rows [][]int) []*Chunk {
	var out []*Chunk
	c := &Chunk{Cols: make([]Vec, 2)}
	for _, r := range rows {
		c.Cols[0].AppendValue(r[0])
	}
	out = append(out, c)
	return out
}
func count(c *Chunk) int { return len(c.Cols) }
`
	if fs := findings(t, lint.ChunkFreeze, "repro/internal/exec", "exec/ok.go", src); len(fs) != 0 {
		t.Fatalf("fresh chunk build or len() flagged: %v", fs)
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
	fs := findings(t, lint.UnlockPaths, "repro/astdb", "astdb/seed.go", src)
	wantFinding(t, fs, "unlock-paths", "not released")
}

func TestUnlockPathsAcceptsDeferAndBalancedPaths(t *testing.T) {
	// Deferred unlocks (direct or inside a deferred closure) credit every
	// exit, including the panic edge; manual unlock-before-return balances.
	src := `package astdb
import "sync"
type T struct {
	mu sync.Mutex
	n  int
}
func (t *T) okDefer(x int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if x > 0 {
		panic("boom")
	}
	return t.n
}
func (t *T) okClosure() int {
	t.mu.Lock()
	defer func() { t.mu.Unlock() }()
	return t.n
}
func (t *T) okManual() int {
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	return n
}
`
	if fs := findings(t, lint.UnlockPaths, "repro/astdb", "astdb/ok.go", src); len(fs) != 0 {
		t.Fatalf("balanced locking flagged: %v", fs)
	}
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
	// The idiom spelled out by hand — a mutex beside an atomic.Pointer — is
	// what internal/rcu replaces; declaring one anywhere else is a finding.
	src := `package storage
import (
	"sync"
	"sync/atomic"
)
type Store struct {
	mu     sync.Mutex
	tables atomic.Pointer[map[string]int]
	epoch  atomic.Int64
}
`
	fs := findings(t, lint.RCUPublish, "repro/internal/storage", "storage/seed.go", src)
	wantFinding(t, fs, "rcu-publish", "atomic.Pointer outside internal/rcu")

	val := `package obs
import "sync/atomic"
var registry atomic.Value
`
	fs = findings(t, lint.RCUPublish, "repro/internal/obs", "obs/seed.go", val)
	wantFinding(t, fs, "rcu-publish", "atomic.Value outside internal/rcu")

	for _, ok := range [][2]string{{"repro/internal/rcu", "rcu/rcu.go"}, {"repro/internal/storage", "storage/x_test.go"}} {
		if fs := findings(t, lint.RCUPublish, ok[0], ok[1], src); len(fs) != 0 {
			t.Fatalf("%s flagged: %v", ok[1], fs)
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

// TestRepositoryIsClean is the dogfood gate: the full analyzer suite over the
// whole module must report nothing. cmd/astlint enforces the same in CI; this
// keeps `go test ./...` sufficient locally.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	fs := lint.Run(pkgs, lint.All())
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
