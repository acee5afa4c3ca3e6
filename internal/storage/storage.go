// Package storage provides an in-memory column store: named tables with
// catalog-described schemas, bulk loading, and chunked column-major data. It
// is the execution substrate — the paper ran inside DB2; we run the same QGM
// graphs over this store.
//
// Layout: each table's rows live in fixed-capacity column-major chunks
// (ChunkRows rows each, every chunk but the last full; per-column typed
// vectors with null bitmaps — see Chunk). Chunks are the only stored form of
// a table. The executor and the write path read them through ScanChunks and
// SnapshotChunks; Scan and Snapshot materialize rows per call for readers that
// want rows. Rows become chunks in one place, Writer.Add.
//
// Concurrency: reads are lock-free. The store's table map is an rcu.Map and
// each table's data view an rcu.Cell: Scan, ScanChunks, Table, Cardinality,
// and TableRows load the current immutable generation and never block behind
// a writer. Writers (Insert, Rewrite, Put, Create, Drop) publish the
// replacement — a copied table map, or a frozen chunk view — and in-flight
// readers keep whatever generation they loaded. Snapshots are therefore
// stable by construction: SnapshotChunks returns sealed chunk headers that
// appends never reach, Rewrite builds new chunks for whatever it changes, and
// Put swaps the whole table so readers keep their old version.
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
// chunks and the row count they cover. It is the only stored form of a table;
// rows exist only where a caller asks for them (Snapshot, Scan).
type tableView struct {
	frozen []*Chunk // all sealed: full chunks shared, tail header-copied
	n      int      // row count covered by chunks
}

// TableData is the stored data of one table: column-major chunks, every one
// but the last full, so row pos is row pos%ChunkRows of chunk pos/ChunkRows.
//
// The canonical (mutable) chunks are the unpublished builder, touched only by
// Insert and Rewrite; every read goes through the immutable generation in
// view, so scans never contend with an in-flight write. The builder keeps a
// lock of its own although an engine admits one writer at a time: loaders,
// examples and tests insert into a TableData directly, without the engine's
// writer slot.
type TableData struct {
	Meta *catalog.Table

	builder rcu.Guarded[Writer] // what the next view is built from
	view    rcu.Cell[tableView] // current read snapshot
}

// Store maps table names to their data. All methods are safe for concurrent
// use; readers are lock-free, writers (Create, Put, Drop) publish a copied
// map.
type Store struct {
	tables rcu.Map[string, *TableData]
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// newTableData builds a table from row-major data, which the caller keeps.
// Rows of the wrong arity are a programming error: it panics.
func newTableData(meta *catalog.Table, rows [][]sqltypes.Value) *TableData {
	td := &TableData{Meta: meta}
	td.builder.Do(func(b *Writer) { b.Cols = len(meta.Columns) })
	if err := td.Rewrite(nil, rows); err != nil {
		panic(err)
	}
	return td
}

// publish makes the builder's chunks the next read generation: full chunks
// are shared, the tail is header-copied (Chunk.frozen). Callers hold the
// builder's lock, so generations publish in the order they were written.
func (t *TableData) publish(b *Writer) {
	next := tableView{frozen: make([]*Chunk, len(b.chunks)), n: b.N}
	for i, c := range b.chunks {
		next.frozen[i] = c.frozen()
	}
	t.view.Update(func(tableView) tableView { return next })
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

// scan resolves a table for a scan. It is the storage-layer fault site
// ("storage.scan:<table>"): chaos tests inject scan errors and delays here to
// prove the pipeline answers from base tables anyway.
func (s *Store) scan(name string) (*TableData, error) {
	td, ok := s.Table(name)
	if !ok {
		return nil, fmt.Errorf("storage: table %q not loaded", strings.ToLower(name))
	}
	if err := faultinject.Hit("storage.scan:" + td.Meta.Name); err != nil {
		return nil, fmt.Errorf("storage: scanning %q: %w", td.Meta.Name, err)
	}
	return td, nil
}

// Scan returns a table's rows, materialized for this call (Snapshot).
func (s *Store) Scan(name string) ([][]sqltypes.Value, error) {
	td, err := s.scan(name)
	if err != nil {
		return nil, err
	}
	return td.Snapshot(), nil
}

// ScanChunks returns a frozen column-major snapshot of a table plus its row
// count, for the executor. It hits the same fault site as Scan.
func (s *Store) ScanChunks(name string) ([]*Chunk, int, error) {
	td, err := s.scan(name)
	if err != nil {
		return nil, 0, err
	}
	chunks, n := td.SnapshotChunks()
	return chunks, n, nil
}

// Snapshot returns the current rows, materialized for this call into rows
// the caller owns. The write path and the executor read chunks instead.
func (t *TableData) Snapshot() [][]sqltypes.Value {
	v := t.view.Load()
	return Rows(v.frozen, v.n)
}

// SnapshotChunks returns the frozen chunk view and the row count it covers.
// Lock-free: the view is republished by every write, so readers never wait
// behind a writer. Full chunks are shared; the tail chunk is header-copied
// with cloned null bitmaps (see Chunk.frozen). Every chunk is sealed.
func (t *TableData) SnapshotChunks() ([]*Chunk, int) {
	v := t.view.Load()
	return v.frozen, v.n
}

// Insert appends one row after arity-checking it and publishes the next read
// view (a one-row Rewrite): the canonical tail chunk grows past what earlier
// generations see, so concurrent scans observe either the old or the new
// generation, never a half-appended row.
func (t *TableData) Insert(row []sqltypes.Value) error {
	return t.Rewrite(nil, [][]sqltypes.Value{row})
}

// Edit is one position of a Rewrite: the row at Pos is replaced by Row, or
// dropped when Row is nil.
type Edit struct {
	Pos int
	Row []sqltypes.Value
}

// Rewrite replaces the table by its current rows with edits applied — sorted
// by position, at most one per row — and add appended, in one publication.
// A chunk whose rows all stay unchanged at their old positions (every chunk
// before the first edit, and later ones while no row has been dropped) is
// kept, a kept tail growing in place; the rest is rebuilt through the
// builder's Writer, so every chunk but the last stays full. Readers keep the
// generation they hold. A malformed edit or row changes nothing.
func (t *TableData) Rewrite(edits []Edit, add [][]sqltypes.Value) (err error) {
	t.builder.Do(func(b *Writer) {
		for i, e := range edits {
			if e.Pos < 0 || e.Pos >= b.N || (i > 0 && e.Pos <= edits[i-1].Pos) || (e.Row != nil && len(e.Row) != b.Cols) {
				err = fmt.Errorf("storage: rewrite of %s: edit of row %d out of order, out of range or of the wrong arity", t.Meta.Name, e.Pos)
				return
			}
		}
		for _, r := range add {
			if len(r) != b.Cols {
				err = fmt.Errorf("storage: row arity %d != %d for table %s", len(r), b.Cols, t.Meta.Name)
				return
			}
		}
		if len(edits) == 0 && len(add) == 0 {
			return
		}
		// The Writer refills the chunk list in place: it never holds more
		// chunks than the loop has read, so it overwrites only read entries.
		old := b.chunks
		b.chunks, b.N, b.Left = old[:0], 0, b.N+len(add)
		var row []sqltypes.Value
		pos := 0
		for _, c := range old {
			if b.N == pos && (len(edits) == 0 || edits[0].Pos >= pos+c.n) {
				b.chunks = append(b.chunks, c)
				b.N, b.Left, pos = b.N+c.n, b.Left-c.n, pos+c.n
				continue
			}
			if row == nil {
				row = make([]sqltypes.Value, b.Cols)
			}
			for i := 0; i < c.n; i, pos = i+1, pos+1 {
				switch {
				case len(edits) == 0 || edits[0].Pos != pos:
					c.Row(i, row)
					b.Add(row)
				case edits[0].Row != nil:
					b.Add(edits[0].Row)
					fallthrough
				default:
					edits = edits[1:]
				}
			}
		}
		for _, r := range add {
			b.Add(r)
		}
		t.publish(b)
	})
	return err
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
