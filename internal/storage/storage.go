// Package storage provides an in-memory column store: named tables with
// catalog-described schemas, bulk loading, and chunked column-major data. It
// is the execution substrate — the paper ran inside DB2; we run the same QGM
// graphs over this store.
//
// Layout: each table's rows live in column-major chunks of at most ChunkRows
// rows (per-column typed vectors with null bitmaps — see Chunk). Chunks are
// the only stored form of a table. Put takes sealed chunks as they are — the
// executor's output, a cube's short per-set chunks among them — so any chunk
// may be short; the table's Writer fills chunks to ChunkRows, never writes
// into a sealed chunk, and seals its open chunk before one a Rewrite keeps, so
// only a table's last chunk is open. The executor and the write path read
// chunks through ScanChunks and SnapshotChunks; Scan and Snapshot materialize
// rows per call for readers that want rows. Rows become chunks in one place,
// Writer.Add; a write after that is chunks too — Rewrite takes Changes whose
// rows are chunks, and copies their vectors a run at a time.
//
// Concurrency: the whole database — every table's sealed chunk view and the
// summary tables' freshness (catalog.Statuses) — is one sequence of immutable
// generations in one rcu.Cell, so a summary table is always read beside the
// base tables it was computed from. Readers never block. Pin fixes one
// generation for a statement; a write on the live store publishes one
// generation, a write on a pinned store is staged there until Commit
// publishes all of it in one swap.
//
// Key invariant: tables are keyed by the ASCII-lowercased table name,
// normalized once when a writer registers the table (Create/Put/Drop).
// Lookups fold their argument without allocating (hot path: every query scan
// and every maintenance step resolves names).
package storage

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
)

// state is one generation of the database.
type state struct {
	names  map[string]int    // lowercased table name → its slot in tables
	tables []TableData       // by slot; a dropped table leaves a zero slot for the next one
	status *catalog.Statuses // the summary tables' freshness
}

// with returns the generation with the named table replaced by td, added, or
// dropped (the zero td).
func (st state) with(name string, td TableData) state {
	slot, ok := st.names[name]
	if !ok && td.table == nil {
		return st
	}
	next := state{names: st.names, tables: make([]TableData, len(st.tables)), status: st.status}
	copy(next.tables, st.tables)
	if ok && td.table != nil {
		next.tables[slot] = td
		return next
	}
	next.names = make(map[string]int, len(st.names)+1)
	maps.Copy(next.names, st.names)
	if ok {
		next.tables[slot] = TableData{}
		delete(next.names, name)
		return next
	}
	if slot = slices.IndexFunc(next.tables, func(t TableData) bool { return t.table == nil }); slot < 0 {
		slot, next.tables = len(next.tables), append(next.tables, td)
	}
	next.tables[slot], next.names[name] = td, slot
	return next
}

// TableData is one generation's view of a table: its schema and its sealed
// chunks, in position order, n rows in all. A TableData is never written: a
// table's next contents are a new TableData in a new generation, so a view
// looked up before a write keeps reading what it read.
type TableData struct {
	*table          // Meta, and what every generation of the table shares
	frozen []*Chunk // all sealed: sealed chunks shared, the open tail header-copied
	n      int
}

// table is what the generations of one table share: its schema and key, the
// mutable chunks the next view is built from, touched only by rewrite, and
// the live store TableData.Insert publishes through. The builder keeps a lock
// of its own although an engine admits one writer at a time: loaders,
// examples and tests insert into a table directly, without the engine's
// writer slot.
type table struct {
	Meta    *catalog.Table
	name    string // lowercased
	builder rcu.Guarded[Writer]
	live    *Store
}

// view seals the builder's chunks into the table's next TableData: the sealed
// chunks are shared; an open tail is header-copied (Chunk.frozen).
func (w *table) view(b *Writer) TableData {
	td := TableData{table: w, frozen: make([]*Chunk, len(b.chunks)), n: b.N}
	if k := copy(td.frozen, b.chunks); k > 0 {
		td.frozen[k-1] = td.frozen[k-1].frozen()
	}
	return td
}

// Store is the database: the live store, or a store pinned to one generation
// (Pin), which belongs to one goroutine.
type Store struct {
	cell rcu.Cell[state] // the live store's: the one publication point
	live *Store          // nil on the live store; on a pinned one, the live store it came from

	st     state    // a pinned store's generation, with its staged table writes applied
	staged []staged // its table writes, in order, for Commit
	ts     []catalog.Transition
}

// staged is one table write of a pinned store (the zero td drops the table).
type staged struct {
	name string
	td   TableData
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

func (s *Store) root() *Store {
	if s.live != nil {
		return s.live
	}
	return s
}

// load returns the generation this store reads.
func (s *Store) load() state {
	if s.live != nil {
		return s.st
	}
	return s.cell.Load()
}

// Pin returns a store fixed at this store's generation. Reads through it never
// see a later publication; writes to it change what it reads and nothing else
// until Commit. The write path evaluates a delta on a pin, never committed,
// with one table replaced by the delta's rows.
func (s *Store) Pin() *Store {
	return &Store{live: s.root(), st: s.load()}
}

// Commit publishes a pinned store's staged writes, in order, onto whatever
// generation is current, in one swap: transitions apply to the statuses of
// that generation, so one published meanwhile survives unless a staged one
// overrides it. The caller must be the database's one writer. On the live
// store Commit does nothing.
func (s *Store) Commit() {
	staged, ts := s.staged, s.ts
	s.staged, s.ts = nil, nil
	if len(staged) == 0 && len(ts) == 0 {
		return
	}
	s.root().cell.Update(func(cur state) state {
		for _, w := range staged {
			cur = cur.with(w.name, w.td)
		}
		cur.status = cur.status.Next(ts)
		return cur
	})
}

// set writes td as the named table (see state.with): the live store
// publishes, a pinned store stages.
func (s *Store) set(name string, td TableData) {
	if s.live == nil {
		s.cell.Update(func(cur state) state { return cur.with(name, td) })
		return
	}
	s.st = s.st.with(name, td)
	s.staged = append(s.staged, staged{name, td})
}

// Statuses returns the summary tables' freshness in this store's generation;
// with Apply, the store is a catalog.Freshness.
func (s *Store) Statuses() *catalog.Statuses { return s.load().status }

// Apply publishes freshness transitions in one generation; a pinned store
// stages them for Commit (its own Statuses stay those it was pinned at).
func (s *Store) Apply(ts ...catalog.Transition) {
	if s.live != nil {
		s.ts = append(s.ts, ts...)
		return
	}
	s.cell.Update(func(cur state) state {
		cur.status = cur.status.Next(ts)
		return cur
	})
}

// Create registers an empty table with the given schema.
func (s *Store) Create(meta *catalog.Table) *TableData {
	return s.Put(meta, nil)
}

// Put replaces (or creates) a table's data wholesale with sealed chunks,
// shared as they are: the table's Writer never writes into them. Readers that
// already scanned the table keep their previous snapshot. A chunk of the
// wrong width is a programming error: Put panics.
func (s *Store) Put(meta *catalog.Table, chunks []*Chunk) *TableData {
	w := &table{Meta: meta, name: strings.ToLower(meta.Name), live: s.root()}
	var td TableData
	w.builder.Do(func(b *Writer) {
		b.Cols, b.chunks = len(meta.Columns), slices.Clone(chunks)
		for _, c := range chunks {
			if len(c.cols) != b.Cols {
				panic(fmt.Sprintf("storage: chunk width %d != %d for table %s", len(c.cols), b.Cols, meta.Name))
			}
			b.N += c.n
		}
		td = w.view(b)
	})
	s.set(w.name, td)
	out, _ := s.Table(w.name)
	return out
}

// PutRows is Put of rows, chunked by a Writer (Chunked). A row of the wrong
// arity is a programming error: PutRows panics.
func (s *Store) PutRows(meta *catalog.Table, rows [][]sqltypes.Value) *TableData {
	for _, r := range rows {
		if len(r) != len(meta.Columns) {
			panic(fmt.Sprintf("storage: row arity %d != %d for table %s", len(r), len(meta.Columns), meta.Name))
		}
	}
	return s.Put(meta, Chunked(len(meta.Columns), rows))
}

// Drop removes a table.
func (s *Store) Drop(name string) {
	s.set(strings.ToLower(name), TableData{})
}

// Table returns a table's view in this store's generation. Lock-free.
func (s *Store) Table(name string) (*TableData, bool) {
	st := s.load()
	slot, ok := lookupFold(st.names, name)
	if !ok {
		return nil, false
	}
	return &st.tables[slot], true
}

// lookupFold resolves a possibly mixed-case name against the lowercase-keyed
// names without allocating for an ASCII name of up to 32 bytes: it is folded
// into a stack buffer, and the runtime builds the non-escaping map key that
// short in a stack temporary. Anything else pays strings.ToLower.
func lookupFold(m map[string]int, name string) (int, bool) {
	var buf [32]byte
	if len(name) > len(buf) {
		slot, ok := m[strings.ToLower(name)]
		return slot, ok
	}
	b := buf[:len(name)]
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 { // non-ASCII: full Unicode folding
			slot, ok := m[strings.ToLower(name)]
			return slot, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	slot, ok := m[string(b)]
	return slot, ok
}

// MustTable is Table that panics when missing.
func (s *Store) MustTable(name string) *TableData {
	td, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("storage: table %q not loaded", name))
	}
	return td
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

// Snapshot returns the view's rows, materialized for this call into rows the
// caller owns. The write path and the executor read chunks instead.
func (t *TableData) Snapshot() [][]sqltypes.Value {
	return Rows(t.frozen, t.Cardinality())
}

// SnapshotChunks returns the view's sealed chunks and the row count they
// cover. Full chunks are shared between generations; the tail chunk is
// header-copied with cloned null bitmaps (see Chunk.frozen).
func (t *TableData) SnapshotChunks() ([]*Chunk, int) {
	return t.frozen, t.Cardinality()
}

// Insert appends one row after arity-checking it to the table of t's name in
// the live store it belongs to, publishing one generation: the canonical tail
// chunk grows past what earlier generations see, so concurrent scans observe
// either the old or the new generation, never a half-appended row. t itself
// keeps the rows it had.
func (t *TableData) Insert(row []sqltypes.Value) error {
	td, ok := t.live.Table(t.name)
	switch {
	case !ok:
		return fmt.Errorf("storage: table %q not loaded", t.name)
	case len(row) != len(td.Meta.Columns):
		return fmt.Errorf("storage: row arity %d != %d for table %s", len(row), len(td.Meta.Columns), td.Meta.Name)
	}
	td.builder.Do(func(b *Writer) {
		b.Left = b.N + 1
		b.Add(row)
		t.live.set(td.name, td.view(b))
	})
	return nil
}

// MustInsert is Insert that panics on error.
func (t *TableData) MustInsert(row ...sqltypes.Value) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// Changes is one Rewrite of a table, in chunk form: the rows at positions
// Drop go, the rows at positions Set become the rows of With, in order, and
// the rows of Add are appended. Drop and Set ascend, and no position is in
// both.
type Changes struct {
	Drop, Set []int
	With, Add []*Chunk
}

// Rewrite replaces the named table by its current rows with ch applied, in
// one write (a publication on the live store, a staged write on a pinned
// one). Readers keep the generation they hold. Malformed changes change
// nothing.
func (s *Store) Rewrite(name string, ch Changes) (err error) {
	td, ok := s.Table(name)
	if !ok {
		return fmt.Errorf("storage: table %q not loaded", strings.ToLower(name))
	}
	// Under the builder's lock, so a table's generations publish in the order
	// they were written.
	td.builder.Do(func(b *Writer) {
		var next TableData
		if next, err = td.rewrite(b, ch); err == nil && next.table != nil {
			s.set(td.name, next)
		}
	})
	return err
}

// rewrite applies ch to the builder b and returns the table's next view, or
// the zero TableData when there is nothing to change. A chunk's set rows are
// patched in (patch), which shares every column whose cells all stay the
// same; a chunk no drop reaches is then kept. One a drop reaches is rebuilt
// through the Writer, and so is the chunk after a rebuilt one while the two
// fit in one chunk, so that short chunks do not pile up. Appended rows are
// copied into the open tail, but for a full chunk of them, which is kept.
func (w *table) rewrite(b *Writer, ch Changes) (TableData, error) {
	if err := w.check(b, ch); err != nil || len(ch.Drop)+len(ch.Set)+len(ch.Add) == 0 {
		return TableData{}, err
	}
	old, drop, set, with, wo := b.chunks, ch.Drop, ch.Set, ch.With, 0 // wo: the next row of with[0]
	b.chunks, b.N, b.Left = make([]*Chunk, 0, len(old)+1), 0, b.N
	pos, rebuilt := 0, false       // rebuilt: the Writer's last chunk follows a rebuilt one
	next := func() (*Chunk, int) { // the next set row: with[0]'s row wo
		for with[0].n == wo {
			with, wo = with[1:], 0
		}
		wo++
		return with[0], wo - 1
	}
	for _, c := range old {
		start, end, k := pos, pos+c.n, 0
		for k < len(set) && set[k] < end {
			k++
		}
		c, set = patch(c, start, set[:k], next), set[k:]
		if k := len(b.chunks); (len(drop) == 0 || drop[0] >= end) && (!rebuilt || k == 0 || b.chunks[k-1].n+c.n > ChunkRows) {
			b.keep(c)
			pos, rebuilt = end, false
			continue
		}
		for rebuilt = true; pos < end; {
			at := end
			if len(drop) > 0 {
				at = min(at, drop[0])
			}
			b.Append(c, pos-start, at-start)
			if pos = at; pos < end {
				drop, pos = drop[1:], pos+1
			}
		}
	}
	for _, c := range ch.Add {
		if c.n == ChunkRows {
			b.keep(c)
		} else {
			b.Append(c, 0, c.n)
		}
	}
	return w.view(b), nil
}

// patch is c, whose first row is at position start, with the rows at
// positions set replaced by the rows next hands out: c itself when every
// replaced cell stays the same (sqltypes.Same), else a chunk sharing the
// columns whose cells do and holding copies of the others, sealed as c is.
func patch(c *Chunk, start int, set []int, next func() (*Chunk, int)) *Chunk {
	if len(set) == 0 {
		return c
	}
	srcs, rows := make([]*Chunk, len(set)), make([]int, len(set))
	for i := range set {
		srcs[i], rows[i] = next()
	}
	var p *Chunk
	for j := range c.cols {
		i := 0
		for i < len(set) && sqltypes.Same(c.cols[j].Value(set[i]-start), srcs[i].cols[j].Value(rows[i])) {
			i++
		}
		if i == len(set) {
			continue
		}
		if p == nil {
			p = &Chunk{n: c.n, cols: slices.Clone(c.cols)}
		}
		v, from := &p.cols[j], 0
		*v = sqltypes.Vec{}
		v.Reserve(c.cols[j].Kind(), c.n)
		for i, pos := range set {
			v.AppendVec(&c.cols[j], from, pos-start)
			v.AppendVec(&srcs[i].cols[j], rows[i], rows[i]+1)
			from = pos - start + 1
		}
		if v.AppendVec(&c.cols[j], from, c.n); c.sealed() {
			v.Seal()
		}
	}
	if p == nil {
		return c
	}
	return p
}

// check refuses changes whose positions are out of order or range or both
// dropped and set, whose With rows are not one per Set position, or whose
// chunks are of the wrong width.
func (w *table) check(b *Writer, ch Changes) error {
	ps, n := slices.Concat(ch.Drop, ch.Set), 0
	slices.Sort(ps)
	if !slices.IsSorted(ch.Drop) || !slices.IsSorted(ch.Set) || len(slices.Compact(ps)) < len(ch.Drop)+len(ch.Set) ||
		len(ps) > 0 && (ps[0] < 0 || ps[len(ps)-1] >= b.N) {
		return fmt.Errorf("storage: rewrite of %s: positions out of order, out of range or repeated", w.Meta.Name)
	}
	for i, c := range slices.Concat(ch.With, ch.Add) {
		if len(c.cols) != b.Cols {
			return fmt.Errorf("storage: chunk width %d != %d for table %s", len(c.cols), b.Cols, w.Meta.Name)
		}
		if i < len(ch.With) {
			n += c.n
		}
	}
	if n != len(ch.Set) {
		return fmt.Errorf("storage: rewrite of %s: %d rows for %d set positions", w.Meta.Name, n, len(ch.Set))
	}
	return nil
}

// Cardinality returns the view's row count, its chunks' lengths summed.
func (t *TableData) Cardinality() int { return t.n }

// TableRows reports a table's cardinality in this store's generation (0 when
// not loaded); with Statuses it implements the rewriter's Sizer interface for
// cost-based AST applicability. Lock-free: the cost-based rewrite path sizes
// tables on every uncached query.
func (s *Store) TableRows(name string) int {
	td, ok := s.Table(name)
	if !ok {
		return 0
	}
	return td.Cardinality()
}
