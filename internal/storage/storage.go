// Package storage provides an in-memory column store: named tables with
// catalog-described schemas, bulk loading, and chunked column-major data. It
// is the execution substrate — the paper ran inside DB2; we run the same QGM
// graphs over this store.
//
// Layout: each table's rows live in fixed-capacity column-major chunks
// (ChunkRows rows each; per-column typed vectors with null bitmaps — see
// Chunk). The vectorized executor scans chunks directly via ScanChunks; the
// row engine and maintenance layer read through the row-view adapter
// (Scan/Snapshot), a lazily materialized [][]Value cache that is kept warm
// across appends.
//
// Concurrency: reads are lock-free. The store's table map is an rcu.Map and
// each table's data view an rcu.Cell: Scan, ScanChunks, Table, Cardinality,
// and TableRows load the current immutable generation and never block behind
// a writer. Writers (Insert, Put, Create, Drop) publish the replacement — a
// copied table map, or a frozen chunk view — and in-flight readers keep
// whatever generation they loaded. Snapshots are therefore stable by
// construction: Scan returns a row-slice header and SnapshotChunks returns
// frozen chunk headers that appends never reach, and Put swaps the whole
// table so readers keep their old version.
//
// Key invariant: the table map is keyed by the ASCII-lowercased table name,
// normalized once when a writer registers the table (Create/Put/Overlay/
// Drop). Lookups fold their argument without allocating (hot path: every
// query scan and every maintenance overlay resolves names).
package storage

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
)

// tableView is one immutable published generation of a table's data: frozen
// chunks, the row count they cover, and (once materialized) the row-view
// cache.
type tableView struct {
	frozen []*Chunk // frozen: sealed chunks shared, tail header-copied
	n      int      // row count covered by chunks
	rows   [][]sqltypes.Value
	rowsOK bool
}

// TableData is the stored data of one table: column-major chunks, plus a
// lazily built row-view cache serving the row-at-a-time engine.
//
// The canonical (mutable) chunks are the unpublished builder, touched only by
// Insert; every read goes through the immutable generation in view, so scans
// never contend with an in-flight append. The builder keeps a lock of its own
// although an engine admits one writer at a time: loaders, examples and tests
// insert into a TableData directly, without the engine's writer slot.
type TableData struct {
	Meta *catalog.Table

	builder rcu.Guarded[tableBuilder] // what the next view is built from
	view    rcu.Cell[tableView]       // current read snapshot
}

// tableBuilder is the state of a table no reader sees.
type tableBuilder struct {
	chunks []*Chunk // canonical column-major data
	n      int      // total row count
}

// Store maps table names to their data. All methods are safe for concurrent
// use; readers are lock-free, writers (Create, Put, Drop) publish a copied
// map.
type Store struct {
	tables rcu.Map[string, *TableData]
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// newTableData builds a table from row-major data, seeding the row-view
// cache with the given slice (callers hand ownership over, as they did when
// rows were the primary representation).
func newTableData(meta *catalog.Table, rows [][]sqltypes.Value) *TableData {
	td := &TableData{Meta: meta}
	if len(rows) > 0 {
		td.builder.Do(func(b *tableBuilder) {
			b.chunks, b.n = buildChunks(len(meta.Columns), rows), len(rows)
			td.view.Update(func(tableView) tableView {
				return tableView{frozen: frozenChunks(b.chunks), n: b.n, rows: rows, rowsOK: true}
			})
		})
	}
	return td
}

// frozenChunks returns the read-only view of the canonical chunks: sealed
// chunks are shared, the tail is header-copied (Chunk.frozen).
func frozenChunks(chunks []*Chunk) []*Chunk {
	if len(chunks) == 0 {
		return nil
	}
	snap := make([]*Chunk, len(chunks))
	for i, c := range chunks {
		snap[i] = c.frozen()
	}
	return snap
}

// Create registers an empty table with the given schema.
func (s *Store) Create(meta *catalog.Table) *TableData {
	return s.Put(meta, nil)
}

// Put replaces (or creates) a table's data wholesale. Readers that already
// scanned the table keep their previous snapshot.
func (s *Store) Put(meta *catalog.Table, rows [][]sqltypes.Value) *TableData {
	td := newTableData(meta, rows)
	name := strings.ToLower(meta.Name)
	s.tables.Update(func(draft map[string]*TableData) { draft[name] = td })
	return td
}

// Drop removes a table.
func (s *Store) Drop(name string) {
	name = strings.ToLower(name)
	s.tables.Update(func(draft map[string]*TableData) { delete(draft, name) })
}

// Table returns a table's data by name. Lock-free.
func (s *Store) Table(name string) (*TableData, bool) {
	return lookupFold(&s.tables, name)
}

// lookupFold resolves a possibly mixed-case name against the lowercase-keyed
// table map without allocating on the common spellings: an already-lowercase
// name is looked up as it is, and a mixed-case ASCII one of up to 32 bytes is
// folded into a stack buffer (the runtime builds a non-escaping string that
// short in a stack temporary). Anything else pays strings.ToLower.
func lookupFold(m *rcu.Map[string, *TableData], name string) (*TableData, bool) {
	hasUpper := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			// Non-ASCII: defer to full Unicode folding.
			return m.Get(strings.ToLower(name))
		}
		if 'A' <= c && c <= 'Z' {
			hasUpper = true
		}
	}
	if !hasUpper {
		return m.Get(name)
	}
	if len(name) <= 32 {
		var arr [32]byte
		b := arr[:len(name)]
		for i := 0; i < len(name); i++ {
			c := name[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b[i] = c
		}
		return m.Get(string(b))
	}
	return m.Get(strings.ToLower(name))
}

// MustTable is Table that panics when missing.
func (s *Store) MustTable(name string) *TableData {
	td, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("storage: table %q not loaded", name))
	}
	return td
}

// Overlay returns a new Store that shares every table with s except name,
// which is replaced by the given rows. Maintenance uses it to evaluate a
// delta query (base table = just the inserted rows) without mutating the
// shared store under concurrent readers.
func (s *Store) Overlay(name string, meta *catalog.Table, rows [][]sqltypes.Value) *Store {
	out := NewStore()
	out.tables.Update(func(draft map[string]*TableData) {
		s.tables.Range(func(n string, td *TableData) bool {
			draft[n] = td
			return true
		})
		draft[strings.ToLower(name)] = newTableData(meta, rows)
	})
	return out
}

// Scan returns a snapshot of a table's rows for execution. It is the
// storage-layer fault site ("storage.scan:<table>"): chaos tests inject scan
// errors and delays here to prove the pipeline answers from base tables
// anyway.
func (s *Store) Scan(name string) ([][]sqltypes.Value, error) {
	td, ok := s.Table(name)
	if !ok {
		return nil, fmt.Errorf("storage: table %q not loaded", strings.ToLower(name))
	}
	if err := faultinject.Hit("storage.scan:" + td.Meta.Name); err != nil {
		return nil, fmt.Errorf("storage: scanning %q: %w", td.Meta.Name, err)
	}
	return td.Snapshot(), nil
}

// ScanChunks returns a frozen column-major snapshot of a table plus its row
// count, for the vectorized executor. It hits the same fault site as Scan —
// chaos coverage does not depend on which executor path runs.
func (s *Store) ScanChunks(name string) ([]*Chunk, int, error) {
	td, ok := s.Table(name)
	if !ok {
		return nil, 0, fmt.Errorf("storage: table %q not loaded", strings.ToLower(name))
	}
	if err := faultinject.Hit("storage.scan:" + td.Meta.Name); err != nil {
		return nil, 0, fmt.Errorf("storage: scanning %q: %w", td.Meta.Name, err)
	}
	chunks, n := td.SnapshotChunks()
	return chunks, n, nil
}

// Snapshot returns the current rows as a stable slice header: rows appended
// after the call are not visible through it. The fast path is one atomic
// view load; only the first call after a bulk chunk load pays materializing
// the row view, which then stays warm across Inserts.
func (t *TableData) Snapshot() [][]sqltypes.Value {
	if v := t.view.Load(); v.rowsOK {
		return v.rows
	}
	var rows [][]sqltypes.Value
	t.view.Update(func(v tableView) tableView {
		if !v.rowsOK { // still cold: no writer published a warm view meanwhile
			v.rows, v.rowsOK = materializeRows(v.n, v.frozen), true
		}
		rows = v.rows
		return v
	})
	return rows
}

// SnapshotChunks returns the frozen chunk view and the row count it covers.
// Lock-free: the view is republished by every append, so readers never wait
// behind a writer. Sealed chunks are shared; the tail chunk is header-copied
// with cloned null bitmaps (see Chunk.frozen).
func (t *TableData) SnapshotChunks() ([]*Chunk, int) {
	v := t.view.Load()
	return v.frozen, v.n
}

// Insert appends one row after arity-checking it, then publishes the next
// read view: the canonical chunks advance under the builder's lock, and the
// frozen snapshot (plus the row-view cache, when materialized) becomes the
// next generation, so concurrent scans observe either the old or the new one,
// never a half-appended row. The lock is held across the publication so that
// two inserts publish in the order they appended.
func (t *TableData) Insert(row []sqltypes.Value) error {
	if len(row) != len(t.Meta.Columns) {
		return fmt.Errorf("storage: row arity %d != %d for table %s", len(row), len(t.Meta.Columns), t.Meta.Name)
	}
	t.builder.Do(func(b *tableBuilder) {
		last := len(b.chunks) - 1
		if last < 0 || b.chunks[last].N == ChunkRows {
			b.chunks = append(b.chunks, newChunk(len(t.Meta.Columns)))
			last++
		}
		b.chunks[last].appendRow(row)
		b.n++
		next := tableView{frozen: frozenChunks(b.chunks), n: b.n}
		t.view.Update(func(prev tableView) tableView {
			if prev.rowsOK {
				// Keep the row view warm: append writes past every outstanding
				// snapshot header's length, so older generations stay stable.
				next.rows, next.rowsOK = append(prev.rows, row), true
			}
			return next
		})
	})
	return nil
}

// MustInsert is Insert that panics on error.
func (t *TableData) MustInsert(row ...sqltypes.Value) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// Cardinality returns the row count. Lock-free.
func (t *TableData) Cardinality() int {
	return t.view.Load().n
}

// TableRows reports a table's cardinality (0 when not loaded); it implements
// the rewriter's Sizer interface for cost-based AST applicability. Lock-free:
// the cost-based rewrite path sizes tables on every uncached query.
func (s *Store) TableRows(name string) int {
	td, ok := s.Table(name)
	if !ok {
		return 0
	}
	return td.Cardinality()
}
